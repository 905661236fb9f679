import sys

import pytest

from covcert import bounds, numberfields

# precision used throughout the suite; chosen so the full run stays fast
# while leaving enclosure widths orders of magnitude below every tolerance
PREC = 160


@pytest.fixture(scope="session")
def catalog():
    return numberfields.default_catalog()


@pytest.fixture(scope="session")
def candidates(catalog):
    """candidates(degree, cutoff): the discriminants of the catalog's fields
    of that degree below the cutoff's upper end, the rule by which the plan
    states the coarse cutoffs' candidates: a field whose discriminant lies
    inside a cutoff's enclosure may lie below the cutoff."""
    return lambda degree, cutoff: [
        f.discriminant for f in catalog if f.degree == degree and f.discriminant < cutoff.hi
    ]


@pytest.fixture(scope="session")
def table():
    return bounds.load_odlyzko_table()


@pytest.fixture
def calls_of():
    """calls_of(run, *functions): the names of the given functions that
    run() calls, by any route: a profile hook matches each call's code
    object, so a function imported under another name is caught too."""

    def calls(run, *functions):
        codes = {f.__code__: f.__name__ for f in functions}
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                seen.add(codes[frame.f_code])

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return seen

    return calls
