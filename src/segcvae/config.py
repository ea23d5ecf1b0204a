"""The hyperparameter schema: every knob is declared once, here.

Each hyperparameter is one dataclass field whose metadata carries its
config-file key (the field name unless it differs), its value kind and its
range rule.  Validation, config-file parsing, the manifest snapshot and the
checkpoint meta all walk these fields, so a knob cannot be accepted in one
place and rejected in another.  A config file holds these knobs and nothing
else: input paths are named on the command line only.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from .corpus import text_lines
from .errors import ConfigError, DomainError

POSITIVE = ("must be positive", lambda v: v > 0)
UNIT = ("must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)


def at_least(bound: int):
    return (f"must be at least {bound}", lambda v: v >= bound)


def hp(default, rule=None, key: str = None, kind: type = None):
    """One hyperparameter: default, range rule ``(why, check)``, file key
    and value kind (the default's type unless given)."""
    return field(default=default, metadata={"rule": rule, "key": key,
                                            "kind": kind or type(default)})


def key_of(f) -> str:
    return f.metadata["key"] or f.name


def range_error(f, value) -> str | None:
    """Why ``value`` breaks the field's range rule, or None if it keeps it;
    only a field whose default is None may be None."""
    if value is None:
        return None if f.default is None else "must not be None"
    rule = f.metadata["rule"]
    if rule is None or rule[1](value):
        return None
    return rule[0]


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: '{text}'")


def parse_value(f, text: str):
    kind = f.metadata["kind"]
    return _bool(text) if kind is bool else kind(text)


def value_text(f, value) -> str:
    """A value as config-file text; floats keep their exact repr."""
    kind = f.metadata["kind"]
    if kind is bool:
        return "true" if value else "false"
    return repr(float(value)) if kind is float else str(value)


@dataclass(kw_only=True)
class Architecture:
    """Network dimensions and structural ablation switches, shared by the
    model and the run configuration."""

    max_len: int = hp(25, at_least(2), key="max_clen")
    emb_dim: int = hp(300, POSITIVE, key="N_emb")
    hidden_dim: int = hp(300, POSITIVE, key="N_hid")
    latent_dim: int = hp(300, POSITIVE, key="d_z")
    kernel_width: int = hp(3, POSITIVE, key="m")
    conv_channels: int = hp(3, POSITIVE, key="chan")
    num_triggers: int = hp(8, POSITIVE, key="M")
    tau: float = hp(0.1, POSITIVE)
    no_is: bool = hp(False)
    no_eg: bool = hp(False)
    no_san: bool = hp(False)
    no_scn: bool = hp(False)
    no_sdn: bool = hp(False)

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            why = range_error(f, value)
            if why:
                raise DomainError(f"{f.name} {why}, got {value}")
        if self.max_len < self.kernel_width:
            raise DomainError(f"'max_clen' {self.max_len} is shorter than the kernel width "
                              f"'m' {self.kernel_width}")


@dataclass(kw_only=True)
class ModelConfig(Architecture):
    """What a network is built from: the architecture plus the vocabulary
    size, which comes from the data rather than from a config file."""

    vocab_size: int = hp(MISSING, POSITIVE, kind=int)

    def meta(self) -> dict[str, str]:
        """Hyperparameters under their checkpoint-index key names; switches
        are written as 0/1."""
        return {key_of(f): str(int(getattr(self, f.name))) if f.metadata["kind"] is bool
                else value_text(f, getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelConfig":
        """Inverse of ``meta``; a missing key raises KeyError, an ill-formed
        value ValueError."""
        return cls(**{f.name: parse_value(f, meta[key_of(f)]) for f in fields(cls)})


@dataclass(kw_only=True)
class TrainingConfig(Architecture):
    """Every knob of a run: optimizer, schedules, model dimensions, ablations."""

    learning_rate: float = hp(0.001, POSITIVE)
    batch_size: int = hp(64, POSITIVE)
    epochs: int = hp(50, POSITIVE)
    grad_clip: float = hp(5.0, POSITIVE)
    snorm_step: int = hp(20000, POSITIVE)
    lambda_constant: float | None = hp(None, UNIT, kind=float)
    kl_anneal_steps: int = hp(10000, POSITIVE)
    seed: int = hp(123456, at_least(0))
    vocab_cap: int = hp(20000, at_least(4))

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size,
                           **{f.name: getattr(self, f.name) for f in fields(Architecture)})


def parse_config(path) -> TrainingConfig:
    """Read line-oriented ``key = value`` text into a full configuration.

    Unknown or repeated keys, wrong types, out-of-range values and non-UTF-8
    text are reported with their line number, an unreadable file or keys
    that break a rule between them by its name; absent keys keep their
    documented defaults.
    """
    by_key = {key_of(f): f for f in fields(TrainingConfig)}
    values: dict[str, object] = {}
    first: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in by_key:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if first.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: key '{key}' repeats line {first[key]}")
        f = by_key[key]
        try:
            value = parse_value(f, text)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: '{key}' needs a "
                              f"{f.metadata['kind'].__name__} value, got '{text}'")
        why = range_error(f, value)
        if why:
            raise ConfigError(f"{path}:{lineno}: '{key}' {why}, got {text}")
        values[f.name] = value
    cfg = TrainingConfig(**values)
    try:
        cfg.validate()
    except DomainError as err:
        raise ConfigError(f"{path}: {err}") from None
    return cfg


def config_snapshot(cfg: TrainingConfig) -> dict[str, str]:
    """The full configuration under its file-format key names; unset
    optional values are left out."""
    return {key_of(f): value_text(f, getattr(cfg, f.name))
            for f in fields(cfg) if getattr(cfg, f.name) is not None}
