"""INI-style run configuration with strict validation.

Sections mirror the CLI subcommands; keys before any section header act as
global defaults for every section that accepts them (beta and modes as
one-entry betas and mode_counts lists), and a section's own key wins over
them.  Unknown sections, unknown keys, malformed numbers, and out-of-range
values are all rejected with the offending line number.  Every value, from
the prelude, a section or a command-line flag, is parsed by the same
per-key parser and reaches its section through override_section, the one
place that maps a scalar beta or modes to a list field.  An empty text
yields each section's defaults as RunConfig below holds them; they differ
between sections (hum: beta=0.6, modes=20, T=1; the table commands: a list
of orders and of mode counts).
Section fields carry their file-key names.  gaps shares the spectrum class
and sharpness the observability class; the sharpness defaults of that
shared table class live on RunConfig.
"""

from dataclasses import dataclass, fields, is_dataclass, replace

from .errors import ConfigError

__all__ = [
    "SpectrumConfig",
    "EvolveConfig",
    "ObservabilityConfig",
    "HumConfig",
    "PohozaevConfig",
    "SweepConfig",
    "RunConfig",
    "parse_config",
    "load_config",
    "override_section",
]


def _checked(convert, accept, rule):
    """Parser that converts text and rejects it, malformed or out of range,
    with the message '<rule>, got <text>'."""

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


# Largest grid accepted (2^14 - 1 interior nodes), checked before anything
# is allocated: the eigensolve holds both (n/2) x (n/2) parity blocks in one
# buffer of 8200 x 8255 doubles, 0.54 GB here.
MAX_NODES = 16383

# Largest horizon accepted.  Eigenvalues obey lambda <= (n+1)^(2 beta) <=
# (MAX_NODES+1)^2 = 2^28, and the wave Gramian's frequency differences reach
# 2 lambda, so every phase the program forms stays below 2^29 * 1e299, about
# 5.4e307, which is finite.  The bound keeps phases finite; it does not make
# them accurate.
MAX_HORIZON = 1e299


def _parse_n(text):
    n = _positive_int("n")(text)
    if n > MAX_NODES:
        raise ValueError(f"n must be at most {MAX_NODES}, got {text}")
    return n


def _order(key):
    return _checked(float, lambda b: 0.0 < b <= 1.0, f"{key} must lie in (0, 1]")


_parse_beta = _order("beta")
_parse_horizon = _checked(
    float, lambda t: 0.0 < t <= MAX_HORIZON, f"T must be positive and at most {MAX_HORIZON:g}"
)
_parse_epsilon = _checked(float, lambda e: 0.0 < e < 1.0, "epsilon must lie in (0, 1)")
_parse_seed = _checked(int, lambda s: s >= 0, "seed must be a nonnegative integer")
_parse_samples = _checked(int, lambda s: s >= 2, "samples must be at least 2")


# The line scan strips every value, so the word parsers below only fold case.
_parse_equation = _checked(
    str.lower, lambda eq: eq in ("schrodinger", "wave"), "equation must be 'schrodinger' or 'wave'"
)


def _parse_datum(text):
    spec = text.lower()
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


def _comma_list(key, text):
    parts = [p.strip() for p in text.split(",")]
    if "" in parts:
        raise ValueError(f"{key} must be a comma list without empty entries, got {text}")
    return parts


def _parse_betas(text):
    vals = tuple(_order("betas")(p) for p in _comma_list("betas", text))
    if len(set(vals)) != len(vals):
        raise ValueError(f"betas must be distinct, got {text}")
    return vals


def _parse_mode_counts(text):
    vals = tuple(_positive_int("mode_counts")(p) for p in _comma_list("mode_counts", text))
    if sorted(set(vals)) != list(vals):
        raise ValueError(f"mode_counts must be strictly increasing, got {text}")
    return vals


_BOOLEANS = {
    **dict.fromkeys(("true", "yes", "1", "on"), True),
    **dict.fromkeys(("false", "no", "0", "off"), False),
}
_parse_bool = _checked(
    lambda text: _BOOLEANS.get(text.lower()), lambda flag: flag is not None, "expected a boolean (true/false)"
)
_parse_command = _checked(
    str.lower,
    lambda cmd: cmd in _SECTION_TYPES and cmd != "sweep",
    "sweep command must name a non-sweep subcommand",
)


@dataclass(frozen=True)
class SpectrumConfig:
    beta: float = 0.5
    n: int = 1024
    modes: int = 10


@dataclass(frozen=True)
class EvolveConfig:
    beta: float = 0.5
    n: int = 1024
    modes: int = 10
    T: float = 4.0
    seed: int = 0
    equation: str = "schrodinger"
    samples: int = 201
    datum: str = "random"


@dataclass(frozen=True)
class ObservabilityConfig:
    betas: tuple = (0.5,)
    mode_counts: tuple = (5, 10, 20, 40)
    n: int = 1024
    T: float = 4.0
    epsilon: float = 0.2


@dataclass(frozen=True)
class HumConfig:
    beta: float = 0.6
    n: int = 1024
    modes: int = 20
    T: float = 1.0
    epsilon: float = 0.2
    seed: int = 0
    datum: str = "random"
    control_csv: bool = True


@dataclass(frozen=True)
class PohozaevConfig:
    beta: float = 0.5
    n: int = 1024
    modes: int = 10
    T: float = 4.0
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
    gaps: SpectrumConfig = SpectrumConfig()
    evolve: EvolveConfig = EvolveConfig()
    observability: ObservabilityConfig = ObservabilityConfig()
    sharpness: ObservabilityConfig = ObservabilityConfig(
        betas=(0.25, 0.75), mode_counts=(5, 10, 20, 30, 40)
    )
    hum: HumConfig = HumConfig()
    pohozaev: PohozaevConfig = PohozaevConfig()
    sweep: SweepConfig = SweepConfig()
    out: str = None


# key name in the file, which is also the section field -> parser
_PARSERS = {
    "beta": _parse_beta,
    "betas": _parse_betas,
    "n": _parse_n,
    "modes": _positive_int("modes"),
    "mode_counts": _parse_mode_counts,
    "T": _parse_horizon,
    "epsilon": _parse_epsilon,
    "seed": _parse_seed,
    "samples": _parse_samples,
    "equation": _parse_equation,
    "datum": _parse_datum,
    "control_csv": _parse_bool,
    "command": _parse_command,
    "jobs": _positive_int("jobs"),
}

# section name -> section dataclass, one per subcommand
_SECTION_TYPES = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}


def _section_keys(section):
    return {f.name for f in fields(_SECTION_TYPES[section])}


# scalar key -> the list field that takes it, one entry long, in a section
# without the scalar; override_section maps it, so the global prelude and the
# flags, which both reach every section through it, map it the same way
_LIST_KEYS = {"beta": "betas", "modes": "mode_counts"}


def _field(section, key):
    """The field of `section` that `key` sets, or None if it sets none."""
    names = _section_keys(section)
    field = key if key in names else _LIST_KEYS.get(key)
    return field if field in names else None


def _unknown_key(key, section, line=None):
    allowed = ", ".join(sorted(_section_keys(section)))
    return ConfigError(f"unknown key {key!r} in [{section}]; allowed keys: {allowed}", line=line)


def _parsed(key, text, line):
    """The value of `key` read from `text`; a bad one is a ConfigError at `line`."""
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(str(exc), line=line) from None


def parse_config(text):
    """Parse INI-style text into a RunConfig with defaults filled.

    A line scan first raises ConfigError, with the line number, for
    malformed lines, unknown sections or keys, and duplicate keys.  Values
    are parsed after it, section by section in RunConfig order: the prelude
    keys a section takes, then the section's own keys, each applied through
    override_section, which is the path the flags take too.  So a section's
    own key wins over the prelude, and a prelude value is parsed once for
    each section that takes it.  A malformed or out-of-range value is a
    ConfigError with its line number.
    """
    section = None  # None = global prelude
    scanned = {None: {}} | {name: {} for name in _SECTION_TYPES}  # key -> (text, line)
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
        if key in scanned[section]:
            where = f"[{section}]" if section else "the global prelude"
            raise ConfigError(f"duplicate key {key!r} in {where}", line=lineno)
        if section is None:
            if key not in _PARSERS and key != "out":
                raise ConfigError(f"unknown key {key!r}", line=lineno)
        elif key not in _section_keys(section):
            raise _unknown_key(key, section, line=lineno)
        scanned[section][key] = value, lineno

    prelude = scanned.pop(None)
    config = RunConfig(out=prelude.pop("out", (None,))[0])
    for name, own in scanned.items():
        for items in ({key: item for key, item in prelude.items() if _field(name, key)}, own):
            values = {key: _parsed(key, *item) for key, item in items.items()}
            config = override_section(config, name, **values)
    return config


def load_config(path):
    """Read and parse a config file; decoding problems become ConfigError."""
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a byte-order mark is skipped
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from None
    return parse_config(text)


def override_section(config, command, /, **updates):
    """Copy of `config` with non-None updates applied to one command section.

    This is the one path from a parsed value to a section field, for the
    config file's prelude and sections and for the flags alike.  For
    list-typed sections a scalar `beta` update becomes a one-element betas
    list and `modes` a one-element mode_counts list.  An update that the
    section does not take is a ConfigError, as the same key in that section
    of a config file is.  `config` and `command` are positional-only, so
    that a section key of either name ([sweep] has `command`) is an update.
    """
    clean = {}
    for key, value in updates.items():
        if value is None:
            continue
        field = _field(command, key)
        if field is None:
            raise _unknown_key(key, command)
        clean[field] = value if field == key else (value,)
    return replace(config, **{command: replace(getattr(config, command), **clean)})
