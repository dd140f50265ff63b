"""Declarative scenario grids for simulation campaigns.

A *campaign* is a cartesian product of axes — platform x workload x
algorithm x seeds x arbitrary named grid axes — expanded into a flat list
of :class:`ScenarioSpec` instances.  Every scenario is fully described by
plain JSON-serialisable data, which buys three properties at once:

* **worker safety** — scenarios cross process boundaries as dicts and are
  materialised into live objects inside the worker
  (:meth:`repro.batch.Simulation.from_spec`);
* **content addressing** — the SHA-256 of the canonical serialisation
  (plus a simulator-version salt) keys the on-disk result cache
  (:mod:`repro.campaign.cache`);
* **reproducibility** — the canonical form *is* the experiment record.

Grid axes may be referenced from workload/platform fields as expression
strings evaluated with :mod:`repro.expressions` — e.g. a campaign file::

    {
      "name": "load-sweep",
      "platform": {"nodes": {"count": 64, "flops": 1e12},
                   "network": {"topology": "star", "bandwidth": 1e10}},
      "workload": {"generate": {"num_jobs": 30,
                                "malleable_fraction": "share",
                                "mean_runtime": "load * 20 * 64 / 6.3"}},
      "algorithms": ["easy", "malleable"],
      "seeds": [0, 1],
      "grid": {"load": [0.5, 0.9, 1.3], "share": [0.0, 0.5, 1.0]}
    }

expands to 2 x 2 x 3 x 3 = 36 scenarios.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro import __version__
from repro._input import (
    COUNT,
    GE0,
    INTEGER,
    LIST,
    NUMBER,
    OBJECT,
    REQUIRED,
    TEXT,
    InputError,
    read,
    read_json,
)
from repro.expressions import ExpressionError, compile_expression

#: Bump when the scenario schema or result-record schema changes in a way
#: that invalidates previously cached results.
CAMPAIGN_FORMAT = 1

#: Default cache salt: old caches are dead weight, never wrong results.
DEFAULT_SALT = f"elastisim-campaign-f{CAMPAIGN_FORMAT}-v{__version__}"

#: Dict keys whose string values are never treated as grid expressions.
#: ``type_mix`` carries ``"rigid,moldable,malleable"`` probability vectors
#: (see :mod:`repro.workload.malleable_mix`).
_LITERAL_KEYS = frozenset({"name", "topology", "file", "type_mix"})

#: Ways a scenario may obtain its workload.
_WORKLOAD_KINDS = ("generate", "file", "inline", "swf")


class CampaignError(InputError):
    """Raised for malformed campaign or scenario specifications."""


# -- canonicalisation ---------------------------------------------------------


def canonicalize(value: Any) -> Any:
    """Normalise a spec fragment into canonical JSON-compatible data.

    Mappings are rebuilt with sorted string keys, sequences become lists,
    and integral floats collapse to ints so ``32`` and ``32.0`` hash the
    same.  Raises :class:`CampaignError` on non-JSON-serialisable input.
    """
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise CampaignError(f"spec keys must be strings, got {key!r}")
            out[key] = canonicalize(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise CampaignError(f"non-finite numbers are not canonical: {value!r}")
        return int(value) if value.is_integer() else value
    if isinstance(value, (int, str)):
        return value
    raise CampaignError(f"not JSON-serialisable: {value!r} ({type(value).__name__})")


def _dump_canonical(canonical: Any) -> str:
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """The canonical single-line serialisation used for hashing and reports."""
    return _dump_canonical(canonicalize(value))


def _content_key(salt: str, canonical_bytes: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_bytes)
    return digest.hexdigest()


def scenario_key(scenario: Mapping[str, Any], *, salt: str = DEFAULT_SALT) -> str:
    """Content address of a scenario: SHA-256 over salt + canonical spec."""
    return _content_key(salt, canonical_json(scenario).encode("utf-8"))


def derive_seed(base_seed: int, *parts: Any) -> int:
    """A deterministic 63-bit seed derived from a base seed and labels.

    Used to fan one campaign-level seed out into per-scenario seeds that
    are stable under grid reordering (they depend on the *labels*, not the
    expansion index).
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode("utf-8"))
    for part in parts:
        digest.update(b"\x00")
        digest.update(canonical_json(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1


# -- scenario ----------------------------------------------------------------


#: ``ScenarioSpec`` fields that enter the content key.
_HASHED_FIELDS = frozenset({"platform", "workload", "algorithm", "seed", "sim"})


@dataclass
class ScenarioSpec:
    """One grid point: everything needed to run a single simulation.

    ``platform``/``workload``/``algorithm``/``seed``/``sim`` define the
    physics and are hashed into the content key; ``name`` and ``params``
    are report labels and deliberately excluded from it.
    """

    platform: Dict[str, Any]
    workload: Dict[str, Any]
    algorithm: str = "easy"
    seed: int = 0
    sim: Dict[str, Any] = field(default_factory=dict)
    #: Grid-point coordinates, carried into report rows.
    params: Dict[str, Any] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise CampaignError(f"algorithm must be a non-empty string: {self.algorithm!r}")
        if not any(k in self.workload for k in _WORKLOAD_KINDS):
            raise CampaignError(
                "workload.generate, workload.file, workload.inline or workload.swf is required"
            )
        if not self.name:
            self.name = self._auto_name()

    def _auto_name(self) -> str:
        coords = [f"{k}={self.params[k]}" for k in sorted(self.params)]
        return "/".join([self.algorithm, *coords, f"seed={self.seed}"])

    def __setattr__(self, name: str, value: Any) -> None:
        # Reassigning a hashed field drops the memoised canonical form.
        if name in _HASHED_FIELDS:
            self.__dict__.pop("_memo", None)
        object.__setattr__(self, name, value)

    def _canonical(self) -> Tuple[Dict[str, Any], bytes]:
        """The canonical dict and its canonical-JSON bytes, computed once.

        The memo lives until a hashed field is *reassigned*; code that
        mutates one in place (``_pin_workload_file``) must reassign it, or
        the scenario keeps the key it had.
        """
        memo: Tuple[Dict[str, Any], bytes] = self.__dict__.get("_memo")
        if memo is None:
            spec: Dict[str, Any] = {
                "platform": self.platform,
                "workload": self.workload,
                "algorithm": self.algorithm,
                "seed": int(self.seed),
                "sim": self.sim,
            }
            canonical = canonicalize(spec)
            memo = (canonical, _dump_canonical(canonical).encode("utf-8"))
            self.__dict__["_memo"] = memo
        return memo

    def canonical(self) -> Dict[str, Any]:
        """The hashed portion of the spec in canonical form.

        A fresh top-level dict over the memoised values: treat what is
        nested inside as read-only.
        """
        return dict(self._canonical()[0])

    def key(self, *, salt: str = DEFAULT_SALT) -> str:
        """Content address; equals ``scenario_key(self.canonical(), salt=salt)``."""
        return _content_key(salt, self._canonical()[1])

    def as_record(self) -> Dict[str, Any]:
        """Full serialisable form (labels included) for reports."""
        record = self.canonical()
        record["name"] = self.name
        record["params"] = canonicalize(self.params)
        return record


# -- grid expansion ----------------------------------------------------------


def _resolve(value: Any, variables: Mapping[str, Any]) -> Any:
    """Substitute grid variables into a spec fragment.

    String leaves (outside :data:`_LITERAL_KEYS`) are compiled with the
    repro expression language and evaluated against the grid point; strings
    that do not parse or reference unknown variables pass through verbatim.
    """
    if isinstance(value, Mapping):
        return {
            k: (v if k in _LITERAL_KEYS else _resolve(v, variables))
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_resolve(v, variables) for v in value]
    if isinstance(value, str):
        try:
            return compile_expression(value).evaluate(variables)
        except ExpressionError:
            return value
    return value


_CAMPAIGN = (
    ("name", TEXT, None, 1),
    ("platform", OBJECT, None, None),
    ("platforms", LIST, None, (OBJECT, None)),
    ("workload", OBJECT, None, None),
    ("workloads", LIST, None, (OBJECT, None)),
    ("algorithm", TEXT, None, 1),
    ("algorithms", LIST, None, (TEXT, 1)),
    ("seeds", LIST, None, (INTEGER, GE0)),
    ("num_seeds", INTEGER, None, COUNT),
    ("base_seed", INTEGER, 0, GE0),
    ("sim", OBJECT, None, None),
    ("grid", OBJECT, None, None),
    ("scenario_timeout", NUMBER, None, (0, False, 31_536_000)),  # a year: a timer takes no more
    ("executor", TEXT, None, 1),
)


def _one_or_many(values: Mapping[str, Any], singular: str, plural: str, default: Any) -> List[Any]:
    if values[singular] is not None and values[plural] is not None:
        raise CampaignError(f"give either {singular!r} or {plural!r}, not both")
    if values[plural] is not None:
        return list(values[plural])
    if values[singular] is not None:
        return [values[singular]]
    if default is None:
        raise CampaignError(f"campaign spec needs {singular!r} or {plural!r}")
    return [default]


def expand_campaign(spec: Mapping[str, Any]) -> List[ScenarioSpec]:
    """Expand a campaign mapping into its flat scenario list.

    Keys: ``name``, ``platform``/``platforms``, ``workload``/``workloads``,
    ``algorithm``/``algorithms``, ``seeds`` (or ``num_seeds`` + optional
    ``base_seed``), ``sim``, ``grid``, and the runner's ``scenario_timeout``
    / ``executor`` (``docs/API.md`` tables them).
    """
    values = read(spec, _CAMPAIGN, "", CampaignError)
    platforms = _one_or_many(values, "platform", "platforms", None)
    workloads = _one_or_many(values, "workload", "workloads", None)
    algorithms = _one_or_many(values, "algorithm", "algorithms", "easy")

    if values["seeds"] is not None and values["num_seeds"] is not None:
        raise CampaignError("give either 'seeds' or 'num_seeds', not both")
    if values["num_seeds"] is not None:
        seeds = [derive_seed(values["base_seed"], i) for i in range(values["num_seeds"])]
    else:
        seeds = values["seeds"] or [0]

    sim = values["sim"] or {}
    grid = values["grid"] or {}
    read(grid, tuple((axis, LIST, REQUIRED, None) for axis in grid), "grid", CampaignError)
    for axis, points in grid.items():
        for index, point in enumerate(points):
            try:  # a point becomes a report label: it must be canonical JSON
                canonicalize(point)
            except CampaignError as exc:
                raise CampaignError(f"grid.{axis}[{index}]: {exc}") from None
    axis_names = sorted(grid)
    axis_values = [grid[name] for name in axis_names]

    scenarios: List[ScenarioSpec] = []
    label_platform = len(platforms) > 1
    label_workload = len(workloads) > 1
    for p_index, platform in enumerate(platforms):
        for w_index, workload in enumerate(workloads):
            for algorithm in algorithms:
                for seed in seeds:
                    for point in itertools.product(*axis_values) if axis_names else [()]:
                        variables = dict(zip(axis_names, point))
                        variables["seed"] = seed
                        params = dict(zip(axis_names, point))
                        if label_platform:
                            params["platform"] = platform.get("name", f"p{p_index}")
                        if label_workload:
                            params["workload"] = workload.get("name", f"w{w_index}")
                        scenarios.append(
                            ScenarioSpec(
                                platform=_resolve(platform, variables),
                                workload=_resolve(workload, variables),
                                algorithm=algorithm,
                                seed=seed,
                                sim=_resolve(sim, variables),
                                params=params,
                            )
                        )
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        for index, scenario in enumerate(scenarios):
            scenario.name = f"{scenario.name}#{index}"
    return scenarios


def load_campaign_spec(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a campaign file into its raw mapping (JSON, or TOML by extension)."""
    path = Path(path)
    if path.suffix.lower() != ".toml":
        return read_json(path, CampaignError)
    import tomllib

    try:
        return tomllib.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CampaignError(f"{path}: cannot read the file ({exc.strerror or exc})") from None
    except UnicodeDecodeError:
        raise CampaignError(f"{path}: not UTF-8 text") from None
    except tomllib.TOMLDecodeError as exc:
        raise CampaignError(f"{path}: not TOML ({exc})") from None


def load_campaign(path: Union[str, Path]) -> List[ScenarioSpec]:
    """Load, expand and check a campaign file (JSON, or TOML by extension).

    Every distinct platform, workload and ``sim`` fragment the grid
    produces is read once by what :meth:`Simulation.from_spec
    <repro.batch.Simulation.from_spec>` reads it with, so a field that is
    wrong is an error naming its first scenario, before anything runs.
    """
    from repro.batch.system import _PART_READERS

    path = Path(path)
    spec = load_campaign_spec(path)
    try:
        scenarios = expand_campaign(spec)
        checked = set()
        for scenario in scenarios:
            _pin_workload_file(scenario, path.parent)
            for part, check in _PART_READERS.items():
                value = getattr(scenario, part)
                fragment = (part, json.dumps(value, sort_keys=True, default=str))
                if fragment not in checked:
                    checked.add(fragment)
                    try:
                        check(value)
                    except InputError as exc:
                        raise CampaignError(f"scenario {scenario.name}: {exc}") from None
    except CampaignError as exc:
        raise CampaignError(f"{path}: {exc}") from None
    return scenarios


def _pin_workload_file(scenario: ScenarioSpec, base: Path) -> None:
    """Resolve workload file paths and pin their content hashes.

    The file's SHA-256 is embedded into the spec so the content address —
    and therefore the result cache — tracks the file's *content*, not its
    name.  Applies to both ``workload.file`` job lists and the trace
    inside a ``workload.swf`` block.
    """
    workload = dict(scenario.workload)
    targets = [workload]
    swf = workload.get("swf")
    if isinstance(swf, dict):
        swf = workload["swf"] = dict(swf)
        targets.append(swf)
    for block in targets:
        ref = block.get("file")
        if not isinstance(ref, str):
            continue  # absent — or wrong, which the check of the block says better
        resolved = Path(ref)
        if not resolved.is_absolute():
            resolved = base / resolved
        try:
            payload = resolved.read_bytes()
        except OSError as exc:
            raise CampaignError(
                f"cannot read workload file {resolved}: {exc}"
            ) from None
        block["file"] = str(resolved)
        block["sha256"] = hashlib.sha256(payload).hexdigest()
    # Reassigned, not edited in place: the content key is memoised.
    scenario.workload = workload


def campaign_run_settings(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Runner-level settings a campaign file may carry.

    ``scenario_timeout`` (positive seconds) and ``executor`` (a backend
    name) configure *how* the campaign runs, never what it computes —
    they are excluded from scenario content keys, and CLI flags override
    them.  Returns only the keys actually present.
    """
    values = read(spec, _CAMPAIGN, "", CampaignError)
    out: Dict[str, Any] = {}
    if values["scenario_timeout"] is not None:
        out["scenario_timeout"] = float(values["scenario_timeout"])
    if values["executor"] is not None:
        out["executor"] = values["executor"]
    return out


def campaign_name(spec: Mapping[str, Any], default: str = "campaign") -> str:
    return read(spec, _CAMPAIGN, "", CampaignError)["name"] or default


def scenarios_from_grid(
    axes: Mapping[str, Sequence[Any]],
    build: Any,
) -> List[ScenarioSpec]:
    """Python-side grid helper: call ``build(**point)`` per grid point.

    ``build`` returns a :class:`ScenarioSpec` (or ``None`` to skip the
    point).  Axis order follows the mapping's iteration order.
    """
    names = list(axes)
    scenarios: List[ScenarioSpec] = []
    for point in itertools.product(*(axes[name] for name in names)):
        scenario = build(**dict(zip(names, point)))
        if scenario is not None:
            scenarios.append(scenario)
    return scenarios


__all__ = [
    "CAMPAIGN_FORMAT",
    "DEFAULT_SALT",
    "CampaignError",
    "ScenarioSpec",
    "campaign_name",
    "campaign_run_settings",
    "canonical_json",
    "canonicalize",
    "derive_seed",
    "expand_campaign",
    "load_campaign",
    "load_campaign_spec",
    "scenario_key",
    "scenarios_from_grid",
]
