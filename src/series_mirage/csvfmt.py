"""The one CSV writer in the package.

Floats are written in the shortest decimal form that round-trips to the same
IEEE double (at most 17 significant digits), so identical runs produce
byte-identical files on any platform.
"""


def fmt_float(x: float) -> str:
    return repr(float(x))


def _cell(value) -> str:
    # numpy float64 is a float; None is an empty cell
    if value is None:
        return ""
    return fmt_float(value) if isinstance(value, float) else str(value)


def format_csv(header, rows, comment: dict | None = None) -> str:
    """CSV text: an optional ``# key=value ...`` line, the header, the rows.

    Cells are written unquoted, so none may contain a comma.
    """
    lines = [] if comment is None else [
        "# " + " ".join(f"{k}={_cell(v)}" for k, v in comment.items())
    ]
    lines.append(",".join(header))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
