from layerpoisson.parsing import parse_expr

# numpy and scipy are the optional 'numcheck' extra.  These two files import
# layerpoisson.numcheck, which needs both, so without the extra they are left
# out rather than reported as collection errors.
try:
    import numpy  # noqa: F401
    import scipy  # noqa: F401
except ImportError as missing:
    collect_ignore = ["test_numcheck.py", "test_acceptance.py"]
    _HEADER = (f"not collected: {', '.join(collect_ignore)}, "
               f"which need {missing.name} (the 'numcheck' extra)")

    def pytest_report_header(config):
        return _HEADER


XY = ("x1", "y")
XYA = ("x1", "y", "a")
YA = ("y", "a")
X3Y = ("x1", "x2", "x3", "y")


def P(text, names=XY):
    """Build an exact polynomial from an expression over the given names."""
    return parse_expr(text, names, allow_negative_exponents=True)
