"""Scenario configuration: JSON schema validation and assembly of the
simulation and estimation settings.

A scenario file fully determines a run: topology and electrical
parameters, simulation horizon and noise, the load-event schedule, the
regulator, and the estimator settings.  Unknown keys are rejected.  The
bundled ``three_bus.json`` encodes the reference three-DGU/three-bus system.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

# The model layers load numpy, which ``report`` never needs: the functions
# that build runtime settings import them when called.
if TYPE_CHECKING:
    from .kalman import NoiseSpec
    from .models import MicrogridTopology
    from .sim import EventSchedule, SimConfig


class ConfigError(ValueError):
    """Configuration that fails to parse or validate."""


@contextmanager
def _section(name: str):
    """Raise a ``ValueError`` of the settings built in the block as a
    ``ConfigError`` that names their JSON section."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _data_text(name: str) -> str:
    return resources.files("microdse").joinpath("data", name).read_text(encoding="utf-8")


@functools.cache
def load_schema() -> dict:
    """JSON schema every scenario file must satisfy, parsed and checked for
    keywords ``_schema_check`` does not support once per process; the one
    copy is shared, so treat it as read-only."""
    schema = json.loads(_data_text("config.schema.json"))
    _refuse_unsupported(schema, schema)
    return schema


def bundled_config_dict() -> dict:
    """Parsed copy of the bundled reference scenario."""
    return json.loads(_data_text("three_bus.json"))


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file whose top level must be an object; ``what`` names
    the file in the ``ConfigError`` raised for anything else."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the {what} must be a JSON object")
    return raw


@dataclass(frozen=True)
class MetricsSettings:
    windows_s: tuple[tuple[float, float], ...] | None = None
    tracking_horizon_s: float = 0.1

    def __post_init__(self):
        # chained comparisons are false for NaN
        if not 0.0 < self.tracking_horizon_s < math.inf:
            raise ValueError(
                f"tracking_horizon_s must be finite and positive, got {self.tracking_horizon_s!r}"
            )
        if self.windows_s is not None and not all(
            math.isfinite(v) for window in self.windows_s for v in window
        ):
            raise ValueError(f"windows_s must be finite, got {self.windows_s!r}")

    def resolved_windows(self, duration_s: float, events: EventSchedule):
        """Configured windows clamped to the run, or steady windows derived
        from the event times when none of the configured ones fit.

        Either way a window [a, b] is kept only if a < b, so a derived
        post-event window that the run leaves no room for (the event less
        than 0.5 s before the end) is dropped, not scored on one sample.
        """
        windows = [(a, min(b, duration_s)) for a, b in self.windows_s or ()]
        if not any(a < b for a, b in windows):
            if events.steps:
                first = events.steps[0].time_s
                windows = [
                    (min(1.0, 0.5 * first), first),
                    (min(events.last_time + 0.5, duration_s), duration_s),
                ]
            else:
                windows = [(min(1.0, 0.25 * duration_s), duration_s)]
        return tuple((a, b) for a, b in windows if a < b)


@dataclass(frozen=True)
class EstimationSettings:
    local_rate_hz: float
    global_rate_hz: float
    method: str
    local_noise: NoiseSpec
    global_noise: NoiseSpec  # per-line [d, q]
    metrics: MetricsSettings


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    sim: SimConfig
    estimation: EstimationSettings


def apply_overrides(raw: dict, overrides: dict) -> dict:
    """Apply CLI overrides onto a parsed scenario dict (overrides win).

    An override whose section holds something other than an object is
    dropped; the schema check then reports that section.
    """
    out = json.loads(json.dumps(raw))  # deep copy, JSON-typed

    def override(section: str, key: str, value) -> None:
        if value is not None and isinstance(out.setdefault(section, {}), dict):
            out[section][key] = value

    override("simulation", "seed", overrides.get("seed"))
    override("simulation", "duration_s", overrides.get("duration_s"))
    override("estimation", "discretization", overrides.get("discretization"))
    if overrides.get("event_time_s") is not None:
        sim = out.get("simulation", {})
        loads = sim.get("loads", {}) if isinstance(sim, dict) else None
        events = loads.get("events", []) if isinstance(loads, dict) else None
        if isinstance(events, list):
            if len(events) != 1:
                raise ConfigError(
                    "--event-time needs exactly one scheduled event, "
                    f"the configuration has {len(events)}"
                )
            if isinstance(events[0], dict):
                events[0]["time_s"] = overrides["event_time_s"]
    return out


#: The keywords ``_schema_check`` checks, with the meaning and the error
#: words of JSON Schema draft 2020-12.  ``$ref`` must point into the root's
#: ``$defs``.
_CHECKED = frozenset({
    "type", "properties", "additionalProperties", "required", "items", "minItems",
    "maxItems", "minimum", "exclusiveMinimum", "enum", "$ref",
})
#: Keywords that check nothing; a schema holding any keyword in neither set
#: is refused, so that no part of it goes unchecked.
_INERT = frozenset({"$schema", "title", "$defs"})


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: _is_number(v)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": _is_number,
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _type_names(value) -> list:
    return [value] if isinstance(value, str) else value


def _target(root: dict, ref: str) -> dict | None:
    prefix = "#/$defs/"
    return root.get("$defs", {}).get(ref[len(prefix):]) if ref.startswith(prefix) else None


def _refuse_unsupported(schema: dict, root: dict, where: str = "#") -> None:
    """Raise ``NotImplementedError`` naming the first keyword, type or
    reference in ``schema`` (at JSON pointer ``where`` of ``root``) that
    ``_schema_errors`` does not check."""
    if not isinstance(schema, dict):
        raise NotImplementedError(f"schema at {where} is not an object")
    for key, value in schema.items():
        at = f"{where}/{key}"
        if key not in _CHECKED and key not in _INERT:
            raise NotImplementedError(f"schema keyword {key!r} at {where} is not supported")
        if key == "type" and not set(_type_names(value)) <= _TYPES.keys():
            raise NotImplementedError(f"schema type {value!r} at {where} is not a JSON type")
        if key == "$ref" and _target(root, value) is None:
            raise NotImplementedError(f"schema reference {value!r} at {where} is not into $defs")
        if key in ("properties", "$defs"):
            for name, sub in value.items():
                _refuse_unsupported(sub, root, f"{at}/{name}")
        elif key == "items" or key == "additionalProperties" and not isinstance(value, bool):
            _refuse_unsupported(value, root, at)


def _equal(a, b) -> bool:
    """JSON equality, under which ``true`` is not ``1`` nor ``false`` ``0``."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a is b or a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(instance, schema: dict, root: dict, path: tuple, out: list) -> None:
    """Append ``(path, message)`` for each way ``instance``, found at
    ``path``, breaks ``schema``, in the order of the schema's keywords."""
    for key, value in schema.items():
        if key == "type":
            types = _type_names(value)
            if not any(_TYPES[t](instance) for t in types):
                out.append((path, f"{instance!r} is not of type {', '.join(map(repr, types))}"))
        elif key == "enum":
            if not any(_equal(each, instance) for each in value):
                out.append((path, f"{instance!r} is not one of {value!r}"))
        elif key == "$ref":
            _schema_errors(instance, _target(root, value), root, path, out)
        elif isinstance(instance, dict):
            if key == "properties":
                for name, sub in value.items():
                    if name in instance:
                        _schema_errors(instance[name], sub, root, (*path, name), out)
            elif key == "required":
                out.extend(
                    (path, f"{name!r} is a required property")
                    for name in value
                    if name not in instance
                )
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extras = [name for name in instance if name not in known]
                if isinstance(value, dict):
                    for name in extras:
                        _schema_errors(instance[name], value, root, (*path, name), out)
                elif not value and extras:
                    names = ", ".join(map(repr, sorted(extras, key=str)))
                    verb = "was" if len(extras) == 1 else "were"
                    out.append(
                        (path, f"Additional properties are not allowed ({names} {verb} unexpected)")
                    )
        elif isinstance(instance, list):
            if key == "items":
                for index, item in enumerate(instance):
                    _schema_errors(item, value, root, (*path, index), out)
            elif key == "minItems" and len(instance) < value:
                words = "should be non-empty" if value == 1 else "is too short"
                out.append((path, f"{instance!r} {words}"))
            elif key == "maxItems" and len(instance) > value:
                words = "is expected to be empty" if value == 0 else "is too long"
                out.append((path, f"{instance!r} {words}"))
        elif _is_number(instance):
            if key == "minimum" and instance < value:
                out.append((path, f"{instance!r} is less than the minimum of {value!r}"))
            elif key == "exclusiveMinimum" and instance <= value:
                out.append(
                    (path, f"{instance!r} is less than or equal to the minimum of {value!r}")
                )


def _schema_check(raw: dict, schema: dict | None = None, what: str = "configuration") -> None:
    """Raise ``ConfigError`` naming the first place, in path order, where
    ``raw`` breaks ``schema`` (default: the scenario schema); a schema with
    a keyword outside ``_CHECKED`` and ``_INERT`` raises
    ``NotImplementedError``."""
    if schema is None:
        schema = load_schema()
    else:
        _refuse_unsupported(schema, schema)
    errors: list = []
    _schema_errors(raw, schema, schema, (), errors)
    if errors:
        path, message = min(errors, key=lambda error: error[0])
        raise ConfigError(f"invalid {what} at {'.'.join(map(str, path)) or '$'}: {message}")


def _topology(raw: dict) -> MicrogridTopology:
    from .models import DguParams, LineParams, MicrogridTopology

    t = raw["topology"]
    dgus_raw = sorted(t["dgus"], key=lambda d: d["bus"])
    buses = [d["bus"] for d in dgus_raw]
    if buses != list(range(1, len(buses) + 1)):
        raise ConfigError(
            f"topology.dgus must cover buses 1..{len(buses)} exactly, got {buses}"
        )
    with _section("topology"):
        dgus = tuple(
            DguParams(r_t=d["r_ohm"], l_t=d["l_henry"], c_t=d["c_farad"]) for d in dgus_raw
        )
        lines = tuple(
            LineParams(
                from_bus=ln["from_bus"], to_bus=ln["to_bus"], r=ln["r_ohm"], l=ln["l_henry"]
            )
            for ln in t["lines"]
        )
        omega = 2.0 * math.pi * t["frequency_hz"]
        return MicrogridTopology(n_buses=len(buses), dgus=dgus, lines=lines, omega=omega)


def _noise_spec(section: dict, name: str) -> NoiseSpec:
    """The noise of the JSON section ``name``; a line section has no inputs."""
    from .kalman import NoiseSpec

    with _section(name):
        return NoiseSpec.from_std(
            section["process_std"],
            section["measurement_std"],
            section.get("input_std", [0.0, 0.0]),
        )


def reference_amplitude(v_ll_rms: float) -> float:
    """Phase voltage amplitude of a nominal line-to-line RMS value."""
    return v_ll_rms * math.sqrt(2.0 / 3.0)


def load_scenario_dict(raw: dict) -> ScenarioConfig:
    """Validate a parsed scenario and build the runtime configuration."""
    import numpy as np

    from .sim import EventSchedule, LoadStep, RegulatorConfig, SimConfig, SimNoise

    _schema_check(raw)
    topology = _topology(raw)
    nb = topology.n_buses
    s = raw["simulation"]

    scale = np.asarray(s["controller"]["reference_scale"], dtype=float)
    if scale.shape != (nb,):
        raise ConfigError(
            f"simulation.controller.reference_scale must list {nb} entries"
        )
    with _section("simulation.controller"):
        controller = RegulatorConfig(
            kp=s["controller"]["kp"],
            ki=s["controller"]["ki_per_s"],
            virtual_resistance=s["controller"]["virtual_resistance_ohm"],
            droop=s["controller"]["droop_v_per_a"],
            reference=reference_amplitude(s["nominal_voltage_ll_rms"]) * scale,
        )

    initial = np.asarray(s["loads"]["initial_amps"], dtype=float)
    if initial.shape != (nb, 2):
        raise ConfigError(f"simulation.loads.initial_amps must be {nb} [d, q] pairs")
    with _section("simulation.loads.events"):
        events = EventSchedule(
            tuple(
                LoadStep(
                    time_s=e["time_s"],
                    bus=e["bus"],
                    delta_d=e["delta_d_amps"],
                    delta_q=e["delta_q_amps"],
                )
                for e in s["loads"]["events"]
            )
        )
    with _section("simulation"):
        sim = SimConfig(
            topology=topology,
            duration_s=s["duration_s"],
            plant_step_s=s["step_s"],
            seed=s["seed"],
            initial_loads=initial,
            events=events,
            noise=SimNoise(
                dgu=_noise_spec(s["noise"]["dgu"], "simulation.noise.dgu"),
                line=_noise_spec(s["noise"]["line"], "simulation.noise.line"),
            ),
            controller=controller,
            start=s.get("start", "equilibrium"),
        )

    e = raw["estimation"]
    plant_rate = 1.0 / sim.plant_step_s
    local_rate = float(e["local_rate_hz"])
    global_rate = float(e["global_rate_hz"])
    for num, den, what in (
        (plant_rate, local_rate, "plant rate by estimation.local_rate_hz"),
        (local_rate, global_rate, "estimation.local_rate_hz by estimation.global_rate_hz"),
    ):
        k = num / den
        if not math.isfinite(k) or k < 1 - 1e-9 or abs(k - round(k)) > 1e-9 * max(1.0, k):
            raise ConfigError(f"{what} must divide evenly, got ratio {k!r}")
    local_noise = _noise_spec(e["local_noise"], "estimation.local_noise")
    global_noise = _noise_spec(e["global_noise"], "estimation.global_noise")
    for name, spec in (("local_noise", local_noise), ("global_noise", global_noise)):
        if (np.diag(spec.r) <= 0.0).any():
            raise ConfigError(f"estimation.{name}.measurement_std must be positive")
    m = e.get("metrics", {})
    windows = m.get("windows_s")
    with _section("estimation.metrics"):
        metrics = MetricsSettings(
            windows_s=tuple((float(a), float(b)) for a, b in windows)
            if windows is not None
            else None,
            tracking_horizon_s=m.get("tracking_horizon_s", 0.1),
        )
    est = EstimationSettings(
        local_rate_hz=local_rate,
        global_rate_hz=global_rate,
        method=e["discretization"],
        local_noise=local_noise,
        global_noise=global_noise,
        metrics=metrics,
    )
    return ScenarioConfig(name=raw.get("name", "scenario"), sim=sim, estimation=est)


def load_scenario(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    """Load, override, validate and assemble a scenario file."""
    raw = read_json_object(path, "configuration")
    if overrides:
        raw = apply_overrides(raw, overrides)
    return load_scenario_dict(raw)


def bundled_scenario(overrides: dict | None = None) -> ScenarioConfig:
    raw = bundled_config_dict()
    if overrides:
        raw = apply_overrides(raw, overrides)
    return load_scenario_dict(raw)
