"""INI-style run configuration with strict validation.

Sections mirror the CLI subcommands; keys before any section header act as
global defaults for every section that accepts them.  Unknown sections,
unknown keys, malformed numbers, and out-of-range values are all rejected
with the offending line number.  An empty text yields the documented
defaults (beta=0.5, n=1024, modes=10, T=4, epsilon=0.2).
"""

from dataclasses import dataclass, fields, is_dataclass, replace

from .errors import ConfigError

__all__ = [
    "SpectrumConfig",
    "GapsConfig",
    "EvolveConfig",
    "ObservabilityConfig",
    "SharpnessConfig",
    "HumConfig",
    "PohozaevConfig",
    "SweepConfig",
    "RunConfig",
    "parse_config",
    "load_config",
    "resolved_values",
    "override_section",
]


def _checked(convert, accept, rule):
    """Parser that converts text and rejects it, malformed or out of range,
    with the message '<rule>, got <text>'; `rule` starts with the key."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise ValueError(f"{rule}, got {text}") from None
        if not accept(value):
            raise ValueError(f"{rule}, got {text}")
        return value

    return parse


def _positive_int(key):
    return _checked(int, lambda v: v >= 1, f"{key} must be a positive integer")


def _order(key):
    return _checked(float, lambda b: 0.0 < b <= 1.0, f"{key} must lie in (0, 1]")


_parse_beta = _order("beta")
_parse_horizon = _checked(float, lambda t: t > 0.0, "T must be positive")
_parse_epsilon = _checked(float, lambda e: 0.0 < e < 1.0, "epsilon must lie in (0, 1)")
_parse_seed = _checked(int, lambda s: s >= 0, "seed must be a nonnegative integer")
_parse_samples = _checked(int, lambda s: s >= 2, "samples must be at least 2")
_parse_intervals = _checked(
    int, lambda m: m >= 2 and m % 2 == 0, "time_intervals must be even and >= 2"
)


def _parse_equation(text):
    eq = text.strip().lower()
    if eq not in ("schrodinger", "wave"):
        raise ValueError(f"equation must be 'schrodinger' or 'wave', got {text}")
    return eq


def _parse_datum(text):
    spec = text.strip().lower()
    if spec in ("zero", "random"):
        return spec
    try:
        modes = tuple(int(p) for p in spec.split(","))
    except ValueError:
        raise ValueError(
            f"datum must be 'zero', 'random', or a comma list of mode numbers, got {text}"
        ) from None
    if not modes or any(k < 1 for k in modes) or len(set(modes)) != len(modes):
        raise ValueError(f"datum mode numbers must be distinct positive integers, got {text}")
    return ",".join(str(k) for k in modes)


def _parse_betas(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("betas must be a nonempty comma list")
    vals = tuple(_order("betas")(p) for p in parts)
    if len(set(vals)) != len(vals):
        raise ValueError(f"betas must be distinct, got {text}")
    return vals


def _parse_mode_counts(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("mode_counts must be a nonempty comma list")
    vals = tuple(_positive_int("mode_counts")(p) for p in parts)
    if sorted(set(vals)) != list(vals):
        raise ValueError(f"mode_counts must be strictly increasing, got {text}")
    return vals


def _parse_bool(text):
    flag = text.strip().lower()
    if flag in ("true", "yes", "1", "on"):
        return True
    if flag in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {text}")


def _parse_command(text):
    cmd = text.strip().lower()
    if cmd not in _SECTION_TYPES or cmd == "sweep":
        raise ValueError(f"sweep command must name a non-sweep subcommand, got {text}")
    return cmd


@dataclass(frozen=True)
class SpectrumConfig:
    beta: float = 0.5
    n: int = 1024
    modes: int = 10


@dataclass(frozen=True)
class GapsConfig:
    beta: float = 0.5
    n: int = 1024
    modes: int = 10


@dataclass(frozen=True)
class EvolveConfig:
    beta: float = 0.5
    n: int = 1024
    modes: int = 10
    horizon: float = 4.0
    seed: int = 0
    equation: str = "schrodinger"
    samples: int = 201
    datum: str = "random"


@dataclass(frozen=True)
class ObservabilityConfig:
    betas: tuple = (0.5,)
    mode_counts: tuple = (5, 10, 20, 40)
    n: int = 1024
    horizon: float = 4.0
    epsilon: float = 0.2


@dataclass(frozen=True)
class SharpnessConfig:
    betas: tuple = (0.25, 0.75)
    mode_counts: tuple = (5, 10, 20, 30, 40)
    n: int = 1024
    horizon: float = 4.0
    epsilon: float = 0.2


@dataclass(frozen=True)
class HumConfig:
    beta: float = 0.6
    n: int = 1024
    modes: int = 20
    horizon: float = 1.0
    epsilon: float = 0.2
    seed: int = 0
    datum: str = "random"
    control_csv: bool = True


@dataclass(frozen=True)
class PohozaevConfig:
    beta: float = 0.5
    n: int = 1024
    modes: int = 10
    horizon: float = 4.0
    time_intervals: int = 512
    datum: str = "1,3"
    seed: int = 0


@dataclass(frozen=True)
class SweepConfig:
    command: str = "spectrum"
    betas: tuple = (0.3, 0.5, 0.75)
    jobs: int = 1


@dataclass(frozen=True)
class RunConfig:
    spectrum: SpectrumConfig = SpectrumConfig()
    gaps: GapsConfig = GapsConfig()
    evolve: EvolveConfig = EvolveConfig()
    observability: ObservabilityConfig = ObservabilityConfig()
    sharpness: SharpnessConfig = SharpnessConfig()
    hum: HumConfig = HumConfig()
    pohozaev: PohozaevConfig = PohozaevConfig()
    sweep: SweepConfig = SweepConfig()
    out: str = None


# key name in the file -> (dataclass field, parser)
_KEY_SPECS = {
    "beta": ("beta", _parse_beta),
    "betas": ("betas", _parse_betas),
    "n": ("n", _positive_int("n")),
    "modes": ("modes", _positive_int("modes")),
    "mode_counts": ("mode_counts", _parse_mode_counts),
    "T": ("horizon", _parse_horizon),
    "epsilon": ("epsilon", _parse_epsilon),
    "seed": ("seed", _parse_seed),
    "samples": ("samples", _parse_samples),
    "time_intervals": ("time_intervals", _parse_intervals),
    "equation": ("equation", _parse_equation),
    "datum": ("datum", _parse_datum),
    "control_csv": ("control_csv", _parse_bool),
    "command": ("command", _parse_command),
    "jobs": ("jobs", _positive_int("jobs")),
}

# section name -> section dataclass, one per subcommand
_SECTION_TYPES = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}


def _section_keys(section):
    names = {f.name for f in fields(_SECTION_TYPES[section])}
    return {key for key, (field, _) in _KEY_SPECS.items() if field in names}


def parse_config(text):
    """Parse INI-style text into a RunConfig with defaults filled.

    Raises ConfigError carrying the line number for unknown sections or
    keys, malformed values, values out of range, and duplicate keys.
    """
    section = None  # None = global prelude
    global_items = []  # (key, value, line)
    section_items = {name: [] for name in _SECTION_TYPES}
    seen = set()
    out_dir = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", line=lineno)
            name = line[1:-1].strip().lower()
            if name not in _SECTION_TYPES:
                known = ", ".join(sorted(_SECTION_TYPES))
                raise ConfigError(f"unknown section [{name}]; known sections: {known}", line=lineno)
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        if (section, key) in seen:
            where = f"[{section}]" if section else "the global prelude"
            raise ConfigError(f"duplicate key {key!r} in {where}", line=lineno)
        seen.add((section, key))
        if section is None:
            if key == "out":
                out_dir = value
                continue
            if key not in _KEY_SPECS:
                raise ConfigError(f"unknown key {key!r}", line=lineno)
            global_items.append((key, value, lineno))
        else:
            if key not in _section_keys(section):
                allowed = ", ".join(sorted(_section_keys(section)))
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; allowed keys: {allowed}", line=lineno
                )
            section_items[section].append((key, value, lineno))

    resolved = {}
    for name, cls in _SECTION_TYPES.items():
        updates = {}
        allowed = _section_keys(name)
        for key, value, lineno in global_items:
            target = key
            if key == "beta" and "beta" not in allowed and "betas" in allowed:
                target = "betas"
            if target not in allowed:
                continue
            field, parser = _KEY_SPECS[target]
            try:
                updates[field] = parser(value)
            except ValueError as exc:
                raise ConfigError(str(exc), line=lineno) from None
        for key, value, lineno in section_items[name]:
            field, parser = _KEY_SPECS[key]
            try:
                updates[field] = parser(value)
            except ValueError as exc:
                raise ConfigError(str(exc), line=lineno) from None
        resolved[name] = cls(**updates)
    return RunConfig(out=out_dir, **resolved)


def load_config(path):
    """Read and parse a config file; decoding problems become ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from None
    return parse_config(text)


def resolved_values(section_config):
    """Flat key/value echo of a section config, file-key spelling."""
    reverse = {field: key for key, (field, _) in _KEY_SPECS.items()}
    echo = {}
    for f in fields(section_config):
        value = getattr(section_config, f.name)
        if isinstance(value, tuple):
            value = list(value)
        echo[reverse.get(f.name, f.name)] = value
    return echo


def override_section(config, command, **updates):
    """Copy of `config` with non-None updates applied to one command section.

    For list-typed sections a scalar `beta` update becomes a one-element
    betas list and `modes` a one-element mode_counts list.
    """
    section = getattr(config, command)
    names = {f.name for f in fields(section)}
    clean = {}
    for key, value in updates.items():
        if value is None:
            continue
        if key == "beta" and "beta" not in names and "betas" in names:
            key, value = "betas", (value,)
        if key == "modes" and "modes" not in names and "mode_counts" in names:
            key, value = "mode_counts", (value,)
        if key in names:
            clean[key] = value
    return replace(config, **{command: replace(section, **clean)})
