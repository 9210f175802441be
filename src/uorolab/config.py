"""Experiment configuration: a flat key-value text format that round-trips
losslessly, plus the published hyperparameter tables."""

from dataclasses import asdict, dataclass, fields

_ALIASES = {
    "neither": "rtrl",
    "temporal": "preuoro",
    "both": "uoro",
}

# The allowed values of every enumerated key.
CHOICES = {
    "task": ("queue", "rowwise-digits"),
    "digits_source": ("synthetic-stripes", "idx-files"),
    "cell": ("vanilla-tanh", "lstm"),
    "estimator": ("bptt", "rtrl", "spatial", "preuoro", "uoro", "reinforce",
                  *_ALIASES),
    "cut": ("preactivation", "state"),
    "alpha_mode": ("gir", "ours", "ones"),
    "q0_mode": ("identity", "ours"),
    "contribution": ("current", "stale-w", "split"),
    "tau_kind": ("sign", "gaussian"),
    "baseline": ("none", "noise-free"),
    "exact_method": ("bptt", "rtrl"),
}

# Keys whose values must be positive.
POSITIVE = ("hidden", "minibatch", "updates", "num_seeds", "sigma", "learning_rate")


@dataclass
class ExperimentConfig:
    """Every setting of a run.  Enumerated keys are checked against CHOICES,
    and the ranges and combinations a run cannot take are refused, when the
    config is built, and so when it is loaded."""

    # task
    task: str = "queue"
    delay: int = 4
    stream_length: int = 16
    digits_source: str = "synthetic-stripes"
    idx_images: str = ""
    idx_labels: str = ""
    digits_limit: int = 512
    # model
    cell: str = "vanilla-tanh"
    hidden: int = 50
    # estimator
    estimator: str = "uoro"
    cut: str = "preactivation"
    alpha_mode: str = "gir"
    q0_mode: str = "identity"
    contribution: str = "current"
    tau_kind: str = "sign"
    gir_scale: float = 1.0
    sigma: float = 0.001  # reinforce state-noise scale
    baseline: str = "noise-free"
    exact_method: str = "bptt"  # how the exact arms compute the gradient
    streaming: bool = False
    # optimization
    learning_rate: float = 0.002
    momentum: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    bbar_decay: float = 0.9
    damping: float = 0.005
    minibatch: int = 100
    updates: int = 100
    # reproducibility / measurement
    base_seed: int = 0
    data_seed: int = 1
    num_seeds: int = 2000
    audit_every: int = 100

    def __post_init__(self):
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"{key} = {value!r} is not one of "
                                 f"{', '.join(allowed)}")
        for key in POSITIVE:
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} = {getattr(self, key)!r} must be positive")
        if not self.damping >= 0:
            raise ValueError(f"damping = {self.damping!r} must be nonnegative")
        if self.task == "queue" and self.delay >= self.stream_length:
            raise ValueError(f"delay = {self.delay} must be below stream_length = "
                             f"{self.stream_length} on the queue task")
        if self.cut == "state" and self.cell == "lstm":
            raise ValueError("cut = 'state' is a cut vertex of the vanilla cell "
                             "only, not of cell = 'lstm'")
        if self.q0_mode == "ours" and self.cut != "preactivation":
            raise ValueError(f"q0_mode = 'ours' needs the exact B, defined at "
                             f"cut = 'preactivation' only, not cut = {self.cut!r}")
        estimator = canonical_estimator(self.estimator)
        if self.q0_mode == "ours" and estimator != "uoro":
            raise ValueError(f"q0_mode = 'ours' shapes the spatial noise of uoro; "
                             f"estimator = {self.estimator!r} takes no Q0")
        if self.alpha_mode == "ours" and estimator not in ("uoro", "preuoro"):
            raise ValueError(f"alpha_mode = 'ours' schedules the rank-one sketches "
                             f"uoro and preuoro; estimator = {self.estimator!r} "
                             f"has no alpha")
        if self.streaming and (self.task != "queue"
                               or estimator not in ("uoro", "preuoro")):
            raise ValueError("streaming = True covers queue training with the "
                             "rank-one estimators uoro and preuoro")
        if self.streaming:  # the streaming loop runs GIR without Q0
            for key, plain in (("alpha_mode", "gir"), ("q0_mode", "identity")):
                if getattr(self, key) != plain:
                    raise ValueError(f"streaming = True runs {key} = {plain!r} "
                                     f"only, not {getattr(self, key)!r}")


def canonical_estimator(name: str) -> str:
    return _ALIASES.get(name, name)


def to_text(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        lines.append(f"{f.name} = {value!r}" if isinstance(value, str) else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> ExperimentConfig:
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(value, known[key], key)
    return ExperimentConfig(**values)


def _coerce(value: str, kind, key: str):
    # dataclass field types may be type objects or annotation strings
    name = kind if isinstance(kind, str) else getattr(kind, "__name__", str(kind))
    if name == "int":
        return int(value)
    if name == "float":
        return float(value)
    if name == "bool":
        if value in ("True", "true", "1"):
            return True
        if value in ("False", "false", "0"):
            return False
        raise ValueError(f"{key}: cannot parse bool from {value!r}")
    # strings may be repr-quoted
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def load(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return from_text(f.read())


def save(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_text(config))


def as_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


# Published settings for the digit-classification variance-reduction grid,
# keyed by (q0_mode, alpha_mode): learning rate, momentum, running-average
# decay and damping (the latter two only when the optimal Q0 is in play).
DIGITS_GRID_HYPERPARAMETERS = {
    ("identity", "gir"): {"learning_rate": 0.005, "momentum": 0.8},
    ("identity", "ours"): {"learning_rate": 0.005, "momentum": 0.5},
    ("ours", "gir"): {"learning_rate": 0.005, "momentum": 0.5,
                      "bbar_decay": 0.9, "damping": 0.008},
    ("ours", "ours"): {"learning_rate": 0.003, "momentum": 0.8,
                       "bbar_decay": 0.9, "damping": 0.005},
}

# Published queue-task learning rates per ablation arm (Adam momentum 0.5,
# minibatch 100, found by grid search in the original study).
QUEUE_LEARNING_RATES = {
    "rtrl": 0.008,
    "spatial": 0.008,
    "preuoro": 0.0008,
    "uoro": 0.002,
}


def queue_config(estimator: str, **overrides) -> ExperimentConfig:
    est = canonical_estimator(estimator)
    base = dict(
        task="queue",
        estimator=est,
        learning_rate=QUEUE_LEARNING_RATES[est],
        momentum=0.5,
        minibatch=100,
        hidden=50,
        delay=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def digits_config(q0_mode: str, alpha_mode: str, **overrides) -> ExperimentConfig:
    base = dict(
        task="rowwise-digits",
        cell="lstm",
        estimator="uoro",
        q0_mode=q0_mode,
        alpha_mode=alpha_mode,
        minibatch=50,
        hidden=50,
    )
    base.update(DIGITS_GRID_HYPERPARAMETERS[(q0_mode, alpha_mode)])
    base.update(overrides)
    return ExperimentConfig(**base)
