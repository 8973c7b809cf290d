"""Flat key=value run configuration.

A config file holds one option per line (# comments and blank lines are
skipped).  The command line reads each line as the flag --key=value, so a
value is coerced as the flag's is, and a flag typed on the command line
wins.
"""


def parse_config(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            out[key] = value.strip()
    return out


def parse_bool(text):
    """'1'/'true'/'yes'/'on' -> True, '0'/'false'/'no'/'off' -> False,
    any case; the command-line flags and config files share it."""
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_trajectory(text):
    """'1:0,101:7' -> ((1, 0), (101, 7)); codes 0..7 move, 8 stays."""
    legs = []
    for part in text.split(","):
        part = part.strip()
        if ":" not in part:
            raise ValueError(f"trajectory leg {part!r}: expected start:direction")
        a, b = part.split(":", 1)
        try:
            legs.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"trajectory leg {part!r}: non-integer field") from None
    return tuple(legs)


def parse_floats(text):
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None
