"""Flat key=value run configuration.

A config file holds one option per line (# comments and blank lines are
skipped).  Values are coerced to the type of the option's built-in
default; command-line flags override config values, which override the
defaults.
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


def _coerce(key, text, like):
    try:
        if isinstance(like, bool):
            return parse_bool(text)
        if isinstance(like, int):
            return int(text)
        if isinstance(like, float):
            return float(text)
    except ValueError:
        kind = "a boolean" if isinstance(like, bool) else type(like).__name__
        raise ValueError(f"option {key!r}: expected {kind}, got {text!r}") from None
    return text


def merge_options(defaults, config, flags):
    """defaults <- config file <- explicit flags; unknown config keys fail."""
    merged = dict(defaults)
    for key, text in config.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, text, defaults[key])
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


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
