import pytest

from layerpoisson.parsing import parse_expr

# numpy and scipy are the optional 'numcheck' extra.  layerpoisson.numcheck
# imports them only inside the functions that use them, so without the extra
# test_numcheck.py is left out and, of the acceptance gates, only the numeric
# cross-checks are skipped; the golden tables and the other gates still run.
try:
    import numpy  # noqa: F401
    import scipy  # noqa: F401
except ImportError as missing:
    collect_ignore = ["test_numcheck.py"]
    _REASON = f"needs {missing.name} (the 'numcheck' extra)"

    def pytest_report_header(config):
        return f"not collected: test_numcheck.py, which {_REASON}"

    def pytest_collection_modifyitems(config, items):
        for item in items:
            if item.name == "test_criterion_7_numeric_cross_checks":
                item.add_marker(pytest.mark.skip(reason=_REASON))


XY = ("x1", "y")
XYA = ("x1", "y", "a")
YA = ("y", "a")
X3Y = ("x1", "x2", "x3", "y")


def P(text, names=XY):
    """Build an exact polynomial from an expression over the given names."""
    return parse_expr(text, names, allow_negative_exponents=True)
