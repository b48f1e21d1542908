"""Test helper shared by the Bell-table tests."""

from catsim import measure


def bell_rows(a, b, ref):
    """`measure._bell_rows` on two measured columns, each scanned against
    ref by `measure._bell_column`."""
    ref = complex(ref)
    return measure._bell_rows(measure._bell_column(a, ref), measure._bell_column(b, ref), ref)
