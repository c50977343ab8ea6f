"""Flat key=value run configuration.

The config format is one ``key=value`` pair per line, ``#`` comments allowed.
Values keep their type through a save/load cycle: booleans serialize as
true/false, ints bare, floats via repr (full precision), everything else as
the raw string.  Values may contain ``=`` (only the first one splits).
"""

from dataclasses import dataclass, field


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(text):
    t = text.strip()
    if t == "true":
        return True
    if t == "false":
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


@dataclass
class RunConfig:
    """Bag of run parameters (tolerances, output dir, seed, command args)."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def __setitem__(self, key, value):
        if "=" in key or key != key.strip() or not key:
            raise ValueError(f"bad config key {key!r}")
        self.values[key] = value

    def save(self, path):
        with open(path, "w") as fh:
            for key in sorted(self.values):
                fh.write(f"{key}={_format_value(self.values[key])}\n")

    @classmethod
    def load(cls, path):
        cfg = cls()
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, raw = line.partition("=")
                if not eq:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                cfg.values[key.strip()] = _parse_value(raw)
        return cfg
