"""Threshold-based smell rules and their evaluation over a code model.

Six metric rules are supported, three with localized scope (confined to a
single method or class) and three with scattered scope (spanning the class
hierarchy or dependency structure). A rule fires when the measured metric is
STRICTLY greater than its threshold, so entities sitting exactly at a
threshold are clean.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError


# an enum member equals only itself, so it can hash by identity in C rather
# than through the Python-level Enum.__hash__ (hash of its name)
class Scope(Enum):
    __hash__ = object.__hash__

    LOCALIZED = "localized"
    SCATTERED = "scattered"


class RuleId(Enum):
    __hash__ = object.__hash__

    EXCESSIVE_METHOD_LENGTH = "ExcessiveMethodLength"
    EXCESSIVE_CLASS_LENGTH = "ExcessiveClassLength"
    EXCESSIVE_PARAMETER_LIST = "ExcessiveParameterList"
    DEPTH_OF_INHERITANCE = "DepthOfInheritance"
    COUPLING_BETWEEN_OBJECTS = "CouplingBetweenObjects"
    NUMBER_OF_CHILDREN = "NumberOfChildren"


class EntityKind(Enum):
    __hash__ = object.__hash__

    CLASS = "class"
    METHOD = "method"
    FUNCTION = "function"


_METHODS = frozenset({EntityKind.METHOD, EntityKind.FUNCTION})
_CLASSES = frozenset({EntityKind.CLASS})

# each rule's scope, the CodeEntity metric field it measures, the entity kinds
# it applies to, and its default threshold
_RULES: dict[RuleId, tuple[Scope, str, frozenset[EntityKind], int]] = {
    RuleId.EXCESSIVE_METHOD_LENGTH: (Scope.LOCALIZED, "loc", _METHODS, 100),
    RuleId.EXCESSIVE_CLASS_LENGTH: (Scope.LOCALIZED, "loc", _CLASSES, 1000),
    RuleId.EXCESSIVE_PARAMETER_LIST: (Scope.LOCALIZED, "parameter_count", _METHODS, 10),
    RuleId.DEPTH_OF_INHERITANCE: (Scope.SCATTERED, "depth_of_inheritance", _CLASSES, 10),
    RuleId.COUPLING_BETWEEN_OBJECTS: (Scope.SCATTERED, "coupling", _CLASSES, 13),
    RuleId.NUMBER_OF_CHILDREN: (Scope.SCATTERED, "children_count", _CLASSES, 15),
}


def scope_of(rule_id: RuleId) -> Scope:
    """Scope of a rule: first three are localized, last three scattered."""
    return _RULES[rule_id][0]


class SmellRule(NamedTuple):
    id: RuleId
    threshold: float  # > 0: load_ruleset refuses any other

    def applies_to(self, kind: EntityKind) -> bool:
        return kind in _RULES[self.id][2]


def default_ruleset() -> list[SmellRule]:
    return [SmellRule(rid, default) for rid, (_, _, _, default) in _RULES.items()]


def load_ruleset(path: str | Path) -> list[SmellRule]:
    """Read threshold overrides from a JSON file: {"RuleId": threshold, ...}.

    Rules not named keep their defaults. Unknown rule names are a
    configuration error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"rules file {path} unreadable: {exc.strerror or exc}") from exc
    # not UTF-8, not JSON, an integer over the digit limit, a NUL in the path;
    # or nested too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"rules file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"rules file {path}: expected a JSON object of rule -> threshold")
    by_name = {rid.value: rid for rid in RuleId}
    thresholds = {rid: default for rid, (_, _, _, default) in _RULES.items()}
    for name, value in raw.items():
        rid = by_name.get(name)
        if rid is None:
            raise ConfigError(f"rules file {path}: unknown rule id {name!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
            raise ConfigError(f"rules file {path}: threshold for {name} must be a positive number")
        thresholds[rid] = value
    return [SmellRule(rid, thr) for rid, thr in thresholds.items()]


class CodeEntity(NamedTuple):
    """One class, method, or free function with its measured metrics.

    Metrics that were not measured default to 0.
    """

    kind: EntityKind
    name: str
    file: str
    parent: str | None = None
    loc: int = 0
    parameter_count: int = 0
    depth_of_inheritance: int = 0
    coupling: int = 0
    children_count: int = 0

    @property
    def entity_path(self) -> str:
        return f"{self.parent}/{self.name}" if self.parent else self.name


# one rule violation in one version: (rule, file, entity_path)
Occurrence = tuple[RuleId, str, str]


_RULE_ORDER = {rid: i for i, rid in enumerate(RuleId)}
RULE_NAMES = {rid: rid.value for rid in RuleId}
SCOPE_NAMES = {scope: scope.value for scope in Scope}
_KIND_BY_VALUE = {kind.value: kind for kind in EntityKind}
_METRICS = ("loc", "parameter_count", "depth_of_inheritance", "coupling", "children_count")


def _rule_plan(rules: list[SmellRule]) -> dict[EntityKind, list[tuple[int, float, int, RuleId]]]:
    """Per entity kind, the (metric's CodeEntity field index, threshold, rule
    order, rule) of each rule that applies."""
    plan = {kind: [] for kind in EntityKind}
    for rule in rules:
        _, metric, kinds, _ = _RULES[rule.id]
        field = CodeEntity._fields.index(metric)
        for kind in kinds:
            plan[kind].append((field, rule.threshold, _RULE_ORDER[rule.id], rule.id))
    return plan


def evaluate_rules(
    entities: list[CodeEntity],
    rules: list[SmellRule],
) -> list[Occurrence]:
    """Flag every (entity, rule) pair whose metric strictly exceeds the threshold.

    Output is ordered by (file, entity_path, rule).
    """
    plan = _rule_plan(rules)
    fired = []
    for entity in entities:
        entity_path = None
        for field, threshold, order, rule in plan[entity.kind]:
            if entity[field] > threshold:
                if entity_path is None:
                    entity_path = entity.entity_path
                fired.append((entity.file, entity_path, order, rule))
    # equal (file, entity_path, order) means the same rule, so no RuleId is ever compared
    fired.sort()
    return [(rule, file, entity_path) for file, entity_path, _, rule in fired]


def load_code_model(path: str | Path) -> list[CodeEntity]:
    """Read a code-model JSON file: a list of entity objects, or {"entities": [...]}.

    Each entity object needs "kind" and the strings "name" and "file"; the
    string "parent" and the metric fields, JSON integers >= 0, are optional.
    """
    with open(path, "rb") as fh:
        return _code_model_entities(fh.read(), path)


def _code_model_entities(data: bytes, path: str | Path) -> list[CodeEntity]:
    """Entities of a code model already read as bytes; errors name path."""
    # after a strict decode only a \u escape makes a lone surrogate; a one-byte search (memchr) is the cheap test
    escaped = b"\\" in data
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"code model {path}: not UTF-8: {exc}") from exc
    # not JSON, an integer over the digit limit, or nested too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"code model {path}: {exc}") from exc
    if isinstance(raw, dict):
        raw = raw.get("entities")
    if not isinstance(raw, list):
        raise ConfigError(f"code model {path}: expected a list of entities or an 'entities' key")
    entities = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"code model {path}: entity #{i} is not an object")
        get = item.get
        raw_kind = get("kind")
        kind = _KIND_BY_VALUE.get(raw_kind) if type(raw_kind) is str else None
        if kind is None:
            raise ConfigError(f"code model {path}: entity #{i}: unknown kind {raw_kind!r}")
        name, file, parent = get("name"), get("file"), get("parent", "")
        if type(name) is not str or type(file) is not str or type(parent) is not str:
            raise ConfigError(f"code model {path}: entity #{i}: name, file and parent must be strings")
        if escaped:
            for field, text in (("name", name), ("file", file), ("parent", parent)):
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ConfigError(f"code model {path}: entity #{i}: {field} holds a lone surrogate") from exc
        metrics = (
            get("loc", 0), get("parameter_count", 0), get("depth_of_inheritance", 0),
            get("coupling", 0), get("children_count", 0),
        )
        for value in metrics:
            # `type(...) is int` also refuses a bool, which is an int subclass
            if type(value) is not int or value < 0:
                field = next(f for f, v in zip(_METRICS, metrics) if v is value)
                raise ConfigError(
                    f"code model {path}: entity #{i}: {field} must be a JSON integer >= 0, got {value!r}"
                )
        entities.append(CodeEntity(kind, name, file, parent or None, *metrics))
    return entities
