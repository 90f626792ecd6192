"""The engine registry: every query engine of the reproduction, by name.

The paper compares one TAG-join evaluator against two baseline families;
this module makes that lineup a runtime-extensible registry instead of a
set of hardcoded classes.  Each entry is a factory producing an object
satisfying the :class:`Engine` protocol (``execute`` / ``execute_sql`` /
``explain``) from an :class:`EngineContext` — the bundle of shared state a
:class:`repro.api.Database` owns: the catalog, the lazily-encoded TAG
graph and one :class:`~repro.planner.cache.PlanCache`.

Built-in names (auto-registered on import):

=============== ============ ====================================================
name            aliases      engine
=============== ============ ====================================================
tag             tag_join     TAG-join executor (the size-adaptive kernel)
tag_dict                     TAG-join over dict rows (the reference oracle)
rdbms           rdbms_hash   RDBMS-style baseline, hash joins
rdbms_sortmerge              RDBMS-style baseline, sort-merge joins
spark           spark_like   distributed shuffle/broadcast baseline
=============== ============ ====================================================

Third parties register their own with :func:`register_engine`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..algebra.logical import QuerySpec
from ..relational.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.executor import QueryResult
    from ..planner import PlanCache
    from ..tag.encoder import TagGraph


class EngineError(ValueError):
    """Raised for unknown engine names or invalid registrations."""


class Engine(Protocol):
    """What every query engine must provide (structural, duck-typed).

    All three executors conform directly: the protocol was distilled from
    their shared surface rather than imposed via inheritance, so existing
    direct-construction code keeps working unchanged.
    """

    name: str

    def execute(self, spec: QuerySpec) -> "QueryResult": ...

    def execute_sql(self, sql: str) -> "QueryResult": ...

    def explain(self, spec: QuerySpec, analyze: bool = False) -> str: ...


@dataclass
class EngineContext:
    """Shared state handed to engine factories by a Database.

    ``tag_graph`` is a zero-argument callable so baselines that never touch
    the TAG encoding do not pay for it.
    """

    catalog: Catalog
    tag_graph: Callable[[], "TagGraph"]
    plan_cache: Optional["PlanCache"] = None
    num_workers: int = 1
    options: Dict[str, Any] = field(default_factory=dict)


EngineFactory = Callable[[EngineContext], Any]


@dataclass(frozen=True)
class _Registration:
    name: str
    factory: EngineFactory
    description: str
    aliases: Tuple[str, ...]


_REGISTRY: Dict[str, _Registration] = {}
_ALIASES: Dict[str, str] = {}
_REGISTRY_LOCK = threading.RLock()


def register_engine(
    name: str,
    factory: EngineFactory,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Register an engine factory under ``name`` (plus optional aliases).

    Both canonical names and aliases live in one namespace: registering a
    name that collides with *any* existing name or alias requires
    ``replace=True``, so a third-party engine can never silently capture a
    built-in alias like ``spark_like``.
    """
    with _REGISTRY_LOCK:
        if not replace:
            taken = set(_REGISTRY) | set(_ALIASES)
            for candidate in (name, *aliases):
                if candidate in taken:
                    raise EngineError(
                        f"engine name or alias {candidate!r} already registered "
                        "(replace=True to override)"
                    )
        _REGISTRY[name] = _Registration(name, factory, description, tuple(aliases))
        # a replacement may shadow what was previously an alias
        _ALIASES.pop(name, None)
        for alias in aliases:
            _ALIASES[alias] = name


def resolve_engine_name(name: str) -> str:
    """Canonical registry name for ``name`` (aliases resolved)."""
    with _REGISTRY_LOCK:
        if name in _REGISTRY:
            return name
        if name in _ALIASES:
            return _ALIASES[name]
    raise EngineError(
        f"unknown engine {name!r}; available: {', '.join(sorted(available_engines()))}"
    )


def available_engines() -> Dict[str, str]:
    """Canonical engine names mapped to their one-line descriptions."""
    with _REGISTRY_LOCK:
        return {reg.name: reg.description for reg in _REGISTRY.values()}


def engine_aliases() -> Dict[str, str]:
    """Alias -> canonical name mapping (for documentation and CLIs)."""
    with _REGISTRY_LOCK:
        return dict(_ALIASES)


def list_engines() -> List[Dict[str, Any]]:
    """Structured registry introspection: every engine, with its aliases.

    The public counterpart of :func:`available_engines` — one record per
    canonical engine, JSON-serialisable as-is.  This is what the query
    server's ``list_engines`` endpoint returns and what
    ``repro.list_engines()`` re-exports, so out-of-process clients see
    exactly the same lineup as in-process callers.
    """
    with _REGISTRY_LOCK:
        registrations = sorted(_REGISTRY.values(), key=lambda reg: reg.name)
        return [
            {
                "name": reg.name,
                "description": reg.description,
                "aliases": sorted(reg.aliases),
            }
            for reg in registrations
        ]


def create_engine(name: str, context: EngineContext) -> Any:
    """Instantiate the engine registered under ``name`` for ``context``."""
    canonical = resolve_engine_name(name)
    with _REGISTRY_LOCK:
        registration = _REGISTRY[canonical]
    return registration.factory(context)


# ----------------------------------------------------------------------
# built-in engines
# ----------------------------------------------------------------------
def _tag_executor(executor_class: Any, context: EngineContext, **defaults: Any) -> Any:
    options = dict(defaults)
    options.update(context.options)
    return executor_class(
        context.tag_graph(),
        context.catalog,
        num_workers=context.num_workers,
        plan_cache=context.plan_cache,
        **options,
    )


def _tag_factory(context: EngineContext) -> Any:
    from ..core.executor import TagJoinExecutor

    return _tag_executor(TagJoinExecutor, context)


def _tag_dict_factory(context: EngineContext) -> Any:
    from ..core.reference import ReferenceTagJoinExecutor

    return _tag_executor(ReferenceTagJoinExecutor, context, name="tag_dict")


def _rdbms_factory(join_algorithm: str) -> EngineFactory:
    def factory(context: EngineContext) -> Any:
        from ..engine.executor import RelationalExecutor

        options = dict(context.options)
        options.setdefault("join_algorithm", join_algorithm)
        return RelationalExecutor(context.catalog, **options)

    return factory


def _spark_factory(context: EngineContext) -> Any:
    from ..distributed.spark_like import SparkLikeExecutor, SparkLikeOptions

    options = dict(context.options)
    if "options" in options:
        spark_options = options.pop("options")
    else:
        option_fields = {"num_partitions", "broadcast_threshold_rows", "collect_result_at_driver"}
        picked = {key: options.pop(key) for key in list(options) if key in option_fields}
        picked.setdefault("num_partitions", max(context.num_workers, 6))
        spark_options = SparkLikeOptions(**picked)
    return SparkLikeExecutor(context.catalog, spark_options, **options)


def _register_builtins() -> None:
    register_engine(
        "tag",
        _tag_factory,
        description="vertex-centric TAG-join executor (the paper's TAG_tg)",
        aliases=("tag_join",),
    )
    register_engine(
        "tag_dict",
        _tag_dict_factory,
        description="TAG-join over dict rows (the reference oracle the kernel is tested against)",
    )
    register_engine(
        "rdbms",
        _rdbms_factory("hash"),
        description="single-node RDBMS-style baseline with hash joins",
        aliases=("rdbms_hash",),
    )
    register_engine(
        "rdbms_sortmerge",
        _rdbms_factory("sort_merge"),
        description="single-node RDBMS-style baseline with sort-merge joins",
    )
    register_engine(
        "spark",
        _spark_factory,
        description="distributed shuffle/broadcast-join baseline (spark_sql)",
        aliases=("spark_like",),
    )


_register_builtins()


def builtin_engine_names() -> List[str]:
    """The canonical names registered by this module itself."""
    return ["tag", "tag_dict", "rdbms", "rdbms_sortmerge", "spark"]
