"""Threshold-based smell rules and their evaluation over a code model.

Six metric rules are supported, three with localized scope (confined to a
single method or class) and three with scattered scope (spanning the class
hierarchy or dependency structure). A rule fires when the measured metric is
STRICTLY greater than its threshold, so entities sitting exactly at a
threshold are clean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError


# a rule is its PMD name, a scope "localized" or "scattered", and an entity
# kind "class", "method" or "function": each is the name the outputs write
_METHODS = frozenset({"method", "function"})
_CLASSES = frozenset({"class"})

# each rule's scope, the CodeEntity metric field it measures, the entity kinds
# it applies to, and its default threshold; rule order is the order of this table
_RULES: dict[str, tuple[str, str, frozenset[str], int]] = {
    "ExcessiveMethodLength": ("localized", "loc", _METHODS, 100),
    "ExcessiveClassLength": ("localized", "loc", _CLASSES, 1000),
    "ExcessiveParameterList": ("localized", "parameter_count", _METHODS, 10),
    "DepthOfInheritance": ("scattered", "depth_of_inheritance", _CLASSES, 10),
    "CouplingBetweenObjects": ("scattered", "coupling", _CLASSES, 13),
    "NumberOfChildren": ("scattered", "children_count", _CLASSES, 15),
}
RULES = tuple(_RULES)  # position -> rule
_RULE_ORDER = {rule: i for i, rule in enumerate(RULES)}  # rule -> position


def scope_of(rule: str) -> str:
    """Scope of a rule: first three are localized, last three scattered."""
    return _RULES[rule][0]


class SmellRule(NamedTuple):
    id: str
    threshold: float  # > 0: load_ruleset refuses any other

    def applies_to(self, kind: str) -> bool:
        return kind in _RULES[self.id][2]


def default_ruleset() -> list[SmellRule]:
    return [SmellRule(rule, default) for rule, (_, _, _, default) in _RULES.items()]


def load_ruleset(path: str | Path) -> list[SmellRule]:
    """Read threshold overrides from a JSON file: {"<rule>": threshold, ...}.

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
    thresholds = {rule: default for rule, (_, _, _, default) in _RULES.items()}
    for name, value in raw.items():
        if name not in thresholds:
            raise ConfigError(f"rules file {path}: unknown rule id {name!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
            raise ConfigError(f"rules file {path}: threshold for {name} must be a positive number")
        thresholds[name] = value
    return [SmellRule(rule, thr) for rule, thr in thresholds.items()]


class CodeEntity(NamedTuple):
    """One class, method, or free function with its measured metrics.

    Metrics that were not measured default to 0.
    """

    kind: str
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
Occurrence = tuple[str, str, str]


_KINDS = {kind: kind for kind in ("class", "method", "function")}  # a decoded kind -> its one shared copy
_METRICS = ("loc", "parameter_count", "depth_of_inheritance", "coupling", "children_count")


def _rule_plan(rules: list[SmellRule]) -> dict[str, list[tuple[int, float, int]]]:
    """Per entity kind, the (metric's CodeEntity field index, threshold, rule
    position) of each rule that applies."""
    plan = {kind: [] for kind in _KINDS}
    for rule in rules:
        _, metric, kinds, _ = _RULES[rule.id]
        field = CodeEntity._fields.index(metric)
        for kind in kinds:
            plan[kind].append((field, rule.threshold, _RULE_ORDER[rule.id]))
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
        for field, threshold, order in plan[entity.kind]:
            if entity[field] > threshold:
                if entity_path is None:
                    entity_path = entity.entity_path
                fired.append((entity.file, entity_path, order))
    fired.sort()
    return [(RULES[order], file, entity_path) for file, entity_path, order in fired]


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
        kind = _KINDS.get(raw_kind) if type(raw_kind) is str else None
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
