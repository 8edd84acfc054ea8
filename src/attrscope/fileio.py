"""File formats: contract spec files, attribution-map and report files with
digest footers, and run manifests. Parsers are total: malformed input comes
back as structured diagnostics, never an unhandled crash."""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, asdict

from .attribution import AttributionMap
from .contract import (
    ContractError, FeatureRef, INDEXED_TARGETS, PROCESS_KINDS, SCORE_KINDS,
    SCORE_PROCESS, SCORE_TARGET, SETTING_SCHEMA,
)
from .evaluation import FaithfulnessCurve, FaithfulnessReport

MAP_HEADER = "attrscope-map v1"
REPORT_HEADER = "attrscope-report v1"

# diagnostic codes
E_MISSING_FIELD = "E_MISSING_FIELD"
E_UNKNOWN_FIELD = "E_UNKNOWN_FIELD"
E_UNKNOWN_SCORE = "E_UNKNOWN_SCORE"
E_OVERLAP = "E_OVERLAP"
E_MISSING_TARGET = "E_MISSING_TARGET"
E_BAD_VALUE = "E_BAD_VALUE"
E_SYNTAX = "E_SYNTAX"
E_BAD_COMBINATION = "E_BAD_COMBINATION"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    line: int  # 1-based; 0 when no specific line applies

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line else ""
        return f"{self.code}: {self.message}{where}"


@dataclass
class ContractSpec:
    """A contract file: its named setting and target, plus the instance
    binding."""
    setting: str | None = None
    target: int | None = None
    # instance binding
    model_path: str | None = None
    prompt_text: str | None = None
    generation: str = "greedy"       # greedy | sample:<temp>
    gen_tokens: str | None = None
    max_len: int = 16
    response_len: int | None = None
    steps: int | None = None
    class_index: int | None = None
    seed: int = 0


@dataclass
class ParseResult:
    spec: ContractSpec | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.spec is not None and not self.diagnostics


_KNOWN_FIELDS = {
    "setting", "score", "fixed", "output", "process", "eligible", "target",
    "model", "prompt", "generation", "gen-tokens", "max-len", "response-len",
    "steps", "class", "seed",
}

_FIXED_VALUES = tuple(sorted({f for _, f, _ in SETTING_SCHEMA.values()}))
_OUTPUT_VALUES = tuple(dict.fromkeys(SCORE_TARGET[s] for s in SCORE_KINDS))
_ELIGIBLE_VALUES = tuple(sorted({e for _, _, e in SETTING_SCHEMA.values()}))
_SCHEMATIC_TO_SETTING = {row: setting for setting, row in SETTING_SCHEMA.items()}


def parse_contract_file(text: str) -> ParseResult:
    diags: list[Diagnostic] = []
    fields: dict[str, tuple[str, int]] = {}
    try:
        lines = text.splitlines()
    except Exception:
        return ParseResult(None, [Diagnostic(E_SYNTAX, "undecodable input", 0)])

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            diags.append(Diagnostic(E_SYNTAX, f"expected 'key: value', got {line!r}",
                                    lineno))
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KNOWN_FIELDS:
            diags.append(Diagnostic(E_UNKNOWN_FIELD, f"unknown field {key!r}", lineno))
            continue
        if key in fields:
            diags.append(Diagnostic(E_SYNTAX, f"duplicate field {key!r}", lineno))
            continue
        fields[key] = (value, lineno)

    def take(key, default=None):
        return fields[key][0] if key in fields else default

    def take_int(key, default=None):
        if key not in fields:
            return default
        value, lineno = fields[key]
        try:
            return int(value)
        except ValueError:
            diags.append(Diagnostic(E_BAD_VALUE, f"{key} must be an integer,"
                                    f" got {value!r}", lineno))
            return default

    spec = ContractSpec()
    spec.setting = take("setting")
    spec.target = take_int("target")
    spec.model_path = take("model")
    spec.prompt_text = take("prompt")
    spec.generation = take("generation", "greedy")
    if spec.generation.startswith("sample:"):
        value = spec.generation.split(":", 1)[1]
        try:
            temperature = float(value)
        except ValueError:
            temperature = math.nan
        if not (math.isfinite(temperature) and temperature > 0):
            diags.append(Diagnostic(E_BAD_VALUE, "sample temperature must be a"
                                    f" finite number > 0, got {value!r}",
                                    fields["generation"][1]))
    elif spec.generation != "greedy":
        diags.append(Diagnostic(E_BAD_VALUE, "generation must be greedy or"
                                f" sample:<t>, got {spec.generation!r}",
                                fields["generation"][1]))
    spec.gen_tokens = take("gen-tokens")
    spec.max_len = take_int("max-len", 16)
    spec.response_len = take_int("response-len")
    spec.steps = take_int("steps")
    spec.class_index = take_int("class")
    spec.seed = take_int("seed", 0)

    if spec.setting is not None:
        if spec.setting not in SETTING_SCHEMA:
            diags.append(Diagnostic(E_BAD_VALUE,
                                    f"unknown setting {spec.setting!r}",
                                    fields["setting"][1]))
            return ParseResult(None, diags)
        output = SCORE_TARGET[SETTING_SCHEMA[spec.setting][0]]
    else:
        score = take("score")
        if score is None:
            diags.append(Diagnostic(E_MISSING_FIELD,
                                    "missing required field: score", 0))
            return ParseResult(None, diags)
        if score not in SCORE_KINDS:
            diags.append(Diagnostic(E_UNKNOWN_SCORE,
                                    f"unknown score name {score!r}",
                                    fields["score"][1]))
            return ParseResult(None, diags)
        fixed = take("fixed", "none")
        output = take("output")
        process = take("process")
        eligible = take("eligible")
        for key, value, allowed in (("fixed", fixed, _FIXED_VALUES),
                                    ("output", output, _OUTPUT_VALUES),
                                    ("process", process, PROCESS_KINDS),
                                    ("eligible", eligible, _ELIGIBLE_VALUES)):
            if value is None:
                diags.append(Diagnostic(E_MISSING_FIELD,
                                        f"missing required field: {key}", 0))
            elif value not in allowed:
                diags.append(Diagnostic(E_BAD_VALUE,
                                        f"{key} must be one of {allowed},"
                                        f" got {value!r}", fields[key][1]))
        if diags:
            return ParseResult(None, diags)
        if fixed != "none" and "prefix" in eligible.split("+"):
            diags.append(Diagnostic(E_OVERLAP, "eligible/fixed overlap: the"
                                    " generated prefix is both eligible and fixed",
                                    fields.get("fixed", ("", 0))[1]))
            return ParseResult(None, diags)
        combo = (score, fixed, eligible)
        spec.setting = _SCHEMATIC_TO_SETTING.get(combo)
        if spec.setting is None:
            diags.append(Diagnostic(E_BAD_COMBINATION,
                                    f"no named setting matches {combo}", 0))
            return ParseResult(None, diags)
        for key, value, table in (("process", process, SCORE_PROCESS),
                                  ("output", output, SCORE_TARGET)):
            if value != table[score]:
                diags.append(Diagnostic(E_BAD_COMBINATION,
                                        f"score {score} requires {key}"
                                        f" {table[score]}", fields[key][1]))
                return ParseResult(None, diags)

    if output in INDEXED_TARGETS and spec.target is None:
        diags.append(Diagnostic(E_MISSING_TARGET, "missing target index", 0))
        return ParseResult(None, diags)
    if diags:
        return ParseResult(None, diags)
    return ParseResult(spec, [])


# -- digest-footed structured text ----------------------------------------


class MapParseError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


# What a well-formed JSON body of the wrong shape or range raises while it
# is read into a map or report: a number of 1e999 reads as inf, and
# int(inf) raises OverflowError.
_BODY_ERRORS = (KeyError, ValueError, TypeError, IndexError, OverflowError,
                RecursionError)


def _digest_document(header: str, body: dict) -> str:
    payload = json.dumps(body, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{header}\n{payload}\ndigest: {digest}\n"


def _parse_digest_document(text: str, header: str) -> dict:
    try:
        lines = text.splitlines()
    except Exception as exc:
        raise MapParseError(E_SYNTAX, f"undecodable input: {exc}") from exc
    if not lines or lines[0] != header:
        raise MapParseError(E_SYNTAX, f"missing {header!r} header")
    if len(lines) < 3 or not lines[-1].startswith("digest: "):
        raise MapParseError(E_SYNTAX, "missing digest footer")
    payload = "\n".join(lines[1:-1])
    claimed = lines[-1][len("digest: "):].strip()
    actual = hashlib.sha256(payload.encode()).hexdigest()
    if claimed != actual:
        raise MapParseError("E_DIGEST", "digest mismatch; file corrupted")
    try:
        body = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise MapParseError(E_SYNTAX, f"bad JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise MapParseError(E_SYNTAX, "body must be a JSON object")
    return body


def _ref_to_list(ref: FeatureRef) -> list:
    return [ref.kind, ref.index, ref.slot]


def _ref_from_list(item) -> FeatureRef:
    try:
        kind, index, slot = item
        return FeatureRef(str(kind), int(index), int(slot))
    except (ValueError, TypeError, OverflowError, ContractError) as exc:
        raise MapParseError(E_BAD_VALUE, f"bad feature ref {item!r}") from exc


def _finite_number(value) -> float:
    """A score or AOPC: a finite number and not a bool, as the serializers
    write it."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise MapParseError(E_BAD_VALUE, f"not a finite number: {value!r}")
    return float(value)


def _optional_number(value) -> float | None:
    return None if value is None else _finite_number(value)


def _method_from_list(items) -> tuple[tuple[str, object], ...]:
    """A method description: [name, value] pairs whose values are the
    scalars attribution._map records."""
    method = []
    for item in items:
        if not (isinstance(item, list) and len(item) == 2
                and isinstance(item[0], str)):
            raise MapParseError(E_BAD_VALUE, f"bad method entry {item!r}")
        name, value = item
        if not (value is None or isinstance(value, (str, int))):
            value = _finite_number(value)
        method.append((name, value))
    return tuple(method)


def serialize_map(attr_map: AttributionMap) -> str:
    body = {
        "contract_id": attr_map.contract_id,
        "method": [list(kv) for kv in attr_map.method],
        "model_id": attr_map.model_id,
        "instance_digest": attr_map.instance_digest,
        "seed": attr_map.seed,
        "entries": [[*_ref_to_list(ref), score] for ref, score in attr_map.entries],
    }
    return _digest_document(MAP_HEADER, body)


def parse_map(text: str) -> AttributionMap:
    body = _parse_digest_document(text, MAP_HEADER)
    try:
        entries = tuple(
            (_ref_from_list(item[:3]), _optional_number(item[3]))
            for item in body["entries"])
        return AttributionMap(
            entries=entries,
            contract_id=str(body["contract_id"]),
            method=_method_from_list(body["method"]),
            model_id=str(body["model_id"]),
            instance_digest=str(body["instance_digest"]),
            seed=int(body["seed"]))
    except MapParseError:
        raise
    except _BODY_ERRORS as exc:
        raise MapParseError(E_SYNTAX, f"malformed map body: {exc}") from exc


def _curve_to_dict(curve: FaithfulnessCurve | None):
    if curve is None:
        return None
    return {"k_values": list(curve.k_values), "scores": list(curve.scores),
            "ordering": curve.ordering, "mode": curve.mode}


def _curve_from_dict(d) -> FaithfulnessCurve | None:
    if d is None:
        return None
    return FaithfulnessCurve(k_values=tuple(int(k) for k in d["k_values"]),
                             scores=tuple(_finite_number(s) for s in d["scores"]),
                             ordering=str(d["ordering"]), mode=str(d["mode"]))


def _policy_from_list(value) -> tuple[str, str]:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, str) for v in value)):
        raise MapParseError(E_BAD_VALUE, f"policy must be two strings: {value!r}")
    return tuple(value)


def serialize_report(report: FaithfulnessReport) -> str:
    body = {
        "contract_id": report.contract_id,
        "method": [list(kv) for kv in report.method],
        "K": report.K,
        "policy": list(report.policy_mode_pair),
        "deletion": _curve_to_dict(report.deletion),
        "insertion": _curve_to_dict(report.insertion),
        "random_deletions": [_curve_to_dict(c) for c in report.random_deletions],
        "random_insertions": [_curve_to_dict(c) for c in report.random_insertions],
        "deletion_aopc": report.deletion_aopc,
        "insertion_aopc": report.insertion_aopc,
        "random_deletion_aopcs": list(report.random_deletion_aopcs),
        "stage_entries": [[*_ref_to_list(ref), score]
                          for ref, score in report.stage_entries],
        "seed": report.seed,
    }
    return _digest_document(REPORT_HEADER, body)


def parse_report(text: str) -> FaithfulnessReport:
    body = _parse_digest_document(text, REPORT_HEADER)
    try:
        return FaithfulnessReport(
            contract_id=str(body["contract_id"]),
            method=_method_from_list(body["method"]),
            K=int(body["K"]),
            policy_mode_pair=_policy_from_list(body["policy"]),
            deletion=_curve_from_dict(body["deletion"]),
            insertion=_curve_from_dict(body["insertion"]),
            random_deletions=tuple(_curve_from_dict(c)
                                   for c in body["random_deletions"]),
            random_insertions=tuple(_curve_from_dict(c)
                                    for c in body["random_insertions"]),
            deletion_aopc=_optional_number(body["deletion_aopc"]),
            insertion_aopc=_optional_number(body["insertion_aopc"]),
            random_deletion_aopcs=tuple(_finite_number(x)
                                        for x in body["random_deletion_aopcs"]),
            stage_entries=tuple(
                (_ref_from_list(item[:3]), _optional_number(item[3]))
                for item in body["stage_entries"]),
            seed=int(body["seed"]))
    except MapParseError:
        raise
    except _BODY_ERRORS as exc:
        raise MapParseError(E_SYNTAX, f"malformed report body: {exc}") from exc


# -- manifests and atomic writes ------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class RunManifest:
    tool_version: str
    command: str
    argv: list[str]              # original args minus the output directory
    model_id: str | None
    contract_id: str | None
    input_digests: dict[str, str]
    seeds: dict[str, int]
    timestamp: str
    outputs: list[str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Raises ValueError when the text is not JSON, RecursionError
        when it nests too deeply, and TypeError when a field is missing,
        unknown or of the wrong type."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("manifest must be a JSON object")
        manifest = cls(**data)
        bad = [name for name, ok in manifest._field_types().items() if not ok]
        if bad:
            raise TypeError(f"wrongly typed field(s): {', '.join(bad)}")
        return manifest

    def _field_types(self) -> dict[str, bool]:
        def strs(items):
            return all(isinstance(x, str) for x in items)

        return {
            "tool_version": isinstance(self.tool_version, str),
            "command": isinstance(self.command, str),
            "argv": isinstance(self.argv, list) and strs(self.argv),
            "model_id": self.model_id is None or isinstance(self.model_id, str),
            "contract_id": (self.contract_id is None
                            or isinstance(self.contract_id, str)),
            # JSON object keys are always strings
            "input_digests": (isinstance(self.input_digests, dict)
                              and strs(self.input_digests.values())),
            "seeds": (isinstance(self.seeds, dict)
                      and all(type(v) is int for v in self.seeds.values())),
            "timestamp": isinstance(self.timestamp, str),
            "outputs": isinstance(self.outputs, list) and strs(self.outputs),
        }


def write_manifest(manifest: RunManifest, path: str) -> None:
    atomic_write_text(path, manifest.to_json())


def read_manifest(path: str) -> RunManifest:
    with open(path) as fh:
        return RunManifest.from_json(fh.read())
