"""XQuery → SQL/XML translation (paper Section 5.3, Algorithm 1).

The five steps of the paper's algorithm map onto this module as follows:

1. *Identification of variable range* — :class:`Analyzer` classifies every
   ``for``/``let`` variable as an **entity variable** (ranging over
   ``doc(...)/root/entity``, backed by the relation's key table) or an
   **attribute variable** (``$e/attr`` or a full path to an attribute,
   backed by that attribute's history table) and assigns each used
   variable a tuple alias in the FROM clause.
2. *Generation of join conditions* — aliases belonging to the same entity
   chain are joined on their ``id`` columns.
3. *Generation of the where conditions* — predicates from path steps and
   the ``where`` clause become SQL conditions via the expression mapper.
4. *Translation of built-in functions* — ``tstart``/``tend`` map to the
   timestamp columns (``tend`` equality uses the ``tendval`` UDF for *now*
   substitution), interval predicates map to the SQL temporal UDFs, and
   ``telement`` literals fold into constant intervals.
5. *Output generation* — the return clause becomes ``XMLElement`` /
   ``XMLAttributes`` / ``XMLAgg`` expressions.

Storage access is deliberately naive here: a segmented or compressed
archive is always read through the deduplicating ``history_<table>``
table function, which is correct for every query.  The segment
restriction of Sections 6.3/6.4 — replacing that full read with
``segno``-restricted scans or ``seg_``/``slice_`` block functions when
snapshot/slicing predicates bound the alias to a window — is no longer
the translator's job: it happens in the logical-plan optimizer
(:mod:`repro.plan.rules`), which sees the predicates after pushdown and
the clustering state through ``Database.segment_provider``.

Anything outside this subset raises :class:`UnsupportedQueryError`; the
ArchIS facade can then fall back to native evaluation on published views.

One deliberate deviation from the paper's QUERY 1 example: when a FLWOR is
wrapped in a constructor, we aggregate all rows into a single element
(matching the XQuery semantics the native engine implements) instead of
producing one element per key as the paper's GROUP BY N.id translation
does; see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, TYPE_CHECKING

from repro.errors import TranslationError, UnsupportedQueryError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.rdb.types import ColumnType
from repro.xquery import ast, parse_xquery

_TRANSLATE_SECONDS = get_registry().histogram("xquery.translate.seconds")
_TRANSLATIONS = get_registry().counter("xquery.translations")

if TYPE_CHECKING:
    from repro.archis.system import ArchIS
    from repro.archis.htables import TrackedRelation


@dataclass
class Translation:
    """A translated query: SQL text plus an optional post-processing step
    (used for temporal aggregates that SQL computes as ordered row streams,
    paper Section 5.4's OLAP-function mapping)."""

    sql: str
    post: Callable | None = None
    params: dict = field(default_factory=dict)


@dataclass
class VarInfo:
    """One bound variable resolved to an H-table alias."""

    name: str
    kind: str  # "entity" | "attribute"
    relation: "TrackedRelation"
    alias: str
    attribute: str | None = None  # attribute vars only
    parent: "VarInfo | None" = None  # attribute vars: their entity var
    used: bool = False  # becomes a FROM source only when used

    @property
    def table(self) -> str:
        if self.kind == "entity":
            return self.relation.key_table
        return self.relation.attribute_table(self.attribute)

    @property
    def value_column(self) -> str:
        if self.kind == "entity":
            raise TranslationError(f"${self.name}: entity vars have no value")
        return self.attribute

    def value_type(self) -> ColumnType | None:
        if self.kind == "entity":
            return None
        if self.attribute == "id":
            return ColumnType.INT
        return self.relation.attributes[self.attribute]


def _unsupported(reason: str) -> UnsupportedQueryError:
    return UnsupportedQueryError(f"not translatable: {reason}")


class Analyzer:
    """Implements Algorithm 1 over the XQuery AST."""

    def __init__(self, archis: "ArchIS") -> None:
        self.archis = archis
        self.vars: dict[str, VarInfo] = {}
        self.all_vars: list[VarInfo] = []
        self.conditions: list[str] = []
        self.joins: list[str] = []
        self._alias_count = 0
        # mapped `order by` keys: (sql, descending)
        self.order_specs: list[tuple[str, bool]] = []

    # -- entry --------------------------------------------------------------

    def translate(self, query: str) -> Translation:
        started = perf_counter()
        try:
            translation = self._translate_timed(query)
        finally:
            _TRANSLATE_SECONDS.observe(perf_counter() - started)
        _TRANSLATIONS.inc()
        return translation

    def _translate_timed(self, query: str) -> Translation:
        tracer = get_tracer()
        with tracer.span("xquery.parse"):
            node = parse_xquery(query)
        with tracer.span("sql.generate"):
            return self._translate_node(node)

    def _translate_node(self, node: object) -> Translation:
        wrapper = None
        if isinstance(node, ast.ComputedElement):
            wrapper = node.name
            node = node.content
        if isinstance(node, ast.FunctionCall):
            return self._translate_aggregate_call(node, wrapper)
        if isinstance(node, ast.PathExpr):
            # bare path query: treat as `for $x in path return $x`
            node = ast.Flwor(
                (ast.ForClause("__x", node),), ast.VarRef("__x")
            )
        if not isinstance(node, ast.Flwor):
            raise _unsupported(f"top-level {type(node).__name__}")
        return self._translate_flwor(node, wrapper)

    # -- aggregate wrappers: count(path), avg(path), max(flwor), tavg($s) ----------

    def _translate_aggregate_call(
        self, call: ast.FunctionCall, wrapper: str | None
    ) -> Translation:
        name = call.name.lower()
        if name in ("tavg", "tsum", "tcount", "tmin", "tmax"):
            return self._translate_temporal_aggregate(call, name)
        if name not in ("count", "avg", "max", "min", "sum"):
            raise _unsupported(f"top-level function {name}()")
        if len(call.args) != 1:
            raise _unsupported(f"{name}() with {len(call.args)} arguments")
        arg = call.args[0]
        if (
            name == "count"
            and isinstance(arg, ast.FunctionCall)
            and arg.name.lower() == "distinct-values"
            and len(arg.args) == 1
        ):
            # count(distinct-values(path)) -> COUNT(DISTINCT col):
            # the paper's Q5 counts distinct *employees*, not versions
            inner = arg.args[0]
            if not isinstance(inner, ast.PathExpr):
                raise _unsupported("distinct-values over a non-path")
            var = self._path_to_var(inner, None)
            var.used = True
            select = f"count(DISTINCT {self._value_sql(var)})"
            return self._finish_scalar(select)
        if isinstance(arg, ast.PathExpr):
            var = self._bind_path("__agg", arg)
            var.used = True
            sql_arg = (
                "*" if name == "count" else self._value_sql(var)
            )
            select = f"{name}({sql_arg})"
            return self._finish_scalar(select)
        if isinstance(arg, ast.Flwor):
            self._analyze_clauses(arg.clauses)
            value_sql, _ = self._operand(arg.return_expr, None)
            select = f"{name}({value_sql})"
            return self._finish_scalar(select)
        raise _unsupported(f"{name}() over {type(arg).__name__}")

    def _translate_temporal_aggregate(
        self, call: ast.FunctionCall, name: str
    ) -> Translation:
        if len(call.args) != 1:
            raise _unsupported(f"{name}() needs a single argument")
        arg = call.args[0]
        if isinstance(arg, ast.VarRef):
            var = self._require_var(arg.name)
        elif isinstance(arg, ast.PathExpr):
            var = self._path_to_var(arg, None)
        else:
            raise _unsupported(f"{name}() over {type(arg).__name__}")
        var.used = True
        if var.kind != "attribute":
            raise _unsupported(f"{name}() over a non-attribute path")
        # emit the aggregate itself: the planner lowers tavg/tcount/...
        # into a SequencedAggregate plan node whose output rows are
        # (value, tstart, tend) — one per constant-value period — so the
        # sweep runs inside the engine, not in a Python post-pass
        sql = self._build_sql(
            select=f"{name}({self._alias_col(var, var.value_column)})"
        )

        def post(result):
            from repro.util.intervals import Interval
            from repro.xquery.temporal import interval_element
            from repro.xmlkit.dom import Text

            out = []
            for value, tstart, tend in result.rows:
                element = interval_element(Interval(int(tstart), int(tend)))
                element.name = name
                rendered = (
                    str(int(value)) if float(value).is_integer() else str(value)
                )
                element.append(Text(rendered))
                out.append(element)
            return out

        return Translation(sql, post)

    def _finish_scalar(self, select: str) -> Translation:
        sql = self._build_sql(select=select)

        def post(result):
            return [result.scalar()]

        return Translation(sql, post)

    # -- FLWOR ------------------------------------------------------------------------

    def _translate_flwor(
        self, flwor: ast.Flwor, wrapper: str | None
    ) -> Translation:
        self._analyze_clauses(flwor.clauses)
        if isinstance(flwor.return_expr, ast.FunctionCall):
            name = flwor.return_expr.name.lower()
            if name in ("tavg", "tsum", "tcount", "tmin", "tmax"):
                return self._translate_temporal_aggregate(
                    flwor.return_expr, name
                )
            if name in ("count", "avg", "max", "min", "sum"):
                arg = flwor.return_expr.args[0]
                value_sql, _ = self._operand(arg, None)
                if name == "count" and isinstance(arg, (ast.VarRef, ast.PathExpr)):
                    value_sql = "*"
                return self._finish_scalar(f"{name}({value_sql})")
        content = self._return_sql(flwor.return_expr)
        order_sql = ", ".join(
            f"{sql} DESC" if desc else sql for sql, desc in self.order_specs
        )
        if wrapper is not None:
            # ordering applies to the aggregated forest (SQL/XML's
            # XMLAgg ... ORDER BY)
            agg = (
                f"XMLAgg({content} ORDER BY {order_sql})"
                if order_sql
                else f"XMLAgg({content})"
            )
            select = f"XMLElement(Name \"{wrapper}\", {agg})"
            sql = self._build_sql(select=select)
        else:
            select = content
            sql = self._build_sql(select=select, order_by=order_sql or None)

        def post(result):
            return result.xml()

        return Translation(sql, post)

    def _analyze_clauses(self, clauses: tuple) -> None:
        for clause in clauses:
            if isinstance(clause, ast.ForClause):
                if clause.position_var:
                    raise _unsupported("positional for-variables")
                var = self._bind_source(clause.var, clause.source)
            elif isinstance(clause, ast.LetClause):
                self._bind_source(clause.var, clause.source)
            elif isinstance(clause, ast.WhereClause):
                self._add_condition(clause.condition)
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    sql, _ = self._operand(
                        self._strip_string_call(spec.key), None
                    )
                    self.order_specs.append((sql, spec.descending))
            else:
                raise _unsupported(f"{type(clause).__name__}")

    @staticmethod
    def _is_tend_call(node: object) -> bool:
        return (
            isinstance(node, ast.FunctionCall)
            and node.name.lower() == "tend"
        )

    @staticmethod
    def _strip_string_call(node: object) -> object:
        """Unwrap ``string(expr)`` in order-by keys (typed columns sort)."""
        if (
            isinstance(node, ast.FunctionCall)
            and node.name.lower() == "string"
            and len(node.args) == 1
        ):
            return node.args[0]
        return node

    # -- variable binding (Algorithm 1 step 1) -------------------------------------------

    def _bind_source(self, name: str, source: object) -> VarInfo:
        if isinstance(source, ast.PathExpr):
            var = self._bind_path(name, source)
            self.vars[name] = var
            return var
        if isinstance(source, ast.FunctionCall):
            raise _unsupported(f"for/let over {source.name}()")
        raise _unsupported(f"for/let over {type(source).__name__}")

    def _new_alias(self) -> str:
        self._alias_count += 1
        return f"t{self._alias_count}"

    def _bind_path(self, name: str, path: ast.PathExpr) -> VarInfo:
        steps = list(path.steps)
        if isinstance(path.start, ast.FunctionCall) and path.start.name in (
            "doc",
            "document",
        ):
            return self._bind_doc_path(name, path.start, steps)
        if isinstance(path.start, ast.VarRef):
            return self._bind_relative_path(name, path.start.name, steps)
        raise _unsupported("path must start at doc() or a bound variable")

    def _bind_doc_path(
        self, name: str, doc_call: ast.FunctionCall, steps: list
    ) -> VarInfo:
        if len(doc_call.args) != 1 or not isinstance(
            doc_call.args[0], ast.Literal
        ):
            raise _unsupported("doc() with a non-literal URI")
        uri = str(doc_call.args[0].value)
        relation = self.archis.relation_for_document(uri)
        if len(steps) < 2:
            raise _unsupported("path must reach the entity element")
        root_step, entity_step, *rest = steps
        if root_step.predicates:
            raise _unsupported("predicates on the document root")
        if entity_step.test != relation.name:
            raise _unsupported(
                f"step {entity_step.test!r} does not match relation "
                f"{relation.name!r}"
            )
        entity = VarInfo(
            name=f"{name}__entity" if rest else name,
            kind="entity",
            relation=relation,
            alias=self._new_alias(),
        )
        self.all_vars.append(entity)
        self._apply_predicates(entity, entity_step.predicates)
        if not rest:
            self.vars[name] = entity
            return entity
        if len(rest) > 1:
            raise _unsupported("paths deeper than entity/attribute")
        var = self._attribute_var(name, entity, rest[0])
        self.vars[name] = var
        return var

    def _bind_relative_path(
        self, name: str, parent_name: str, steps: list
    ) -> VarInfo:
        parent = self.vars.get(parent_name)
        if parent is None:
            raise _unsupported(f"${parent_name} is not a translatable binding")
        if parent.kind != "entity":
            raise _unsupported(
                f"${parent_name}: navigation below attributes"
            )
        if len(steps) != 1:
            raise _unsupported("relative paths must be a single step")
        var = self._attribute_var(name, parent, steps[0])
        self.vars[name] = var
        return var

    def _attribute_var(
        self, name: str, entity: VarInfo, step: ast.Step
    ) -> VarInfo:
        if step.axis not in ("child",):
            raise _unsupported(f"axis {step.axis!r}")
        attribute = step.test
        relation = entity.relation
        if attribute == "id" or attribute == relation.key:
            # the key's history lives in the key table: alias the entity
            var = VarInfo(
                name=name,
                kind="attribute",
                relation=relation,
                alias=entity.alias,
                attribute="id",
                parent=entity,
            )
            anchor = getattr(entity, "_anchor", None)
            if not entity.used:
                entity.used = True
                if anchor is not None and anchor is not entity:
                    self.joins.append(f"{anchor.alias}.id = {entity.alias}.id")
                else:
                    entity._anchor = entity  # type: ignore[attr-defined]
            self.all_vars.append(var)
            self._apply_predicates(var, step.predicates)
            return var
        if attribute not in relation.attributes:
            raise _unsupported(
                f"{relation.name} has no attribute {attribute!r}"
            )
        var = VarInfo(
            name=name,
            kind="attribute",
            relation=relation,
            alias=self._new_alias(),
            attribute=attribute,
            parent=entity,
        )
        var.used = True
        self.all_vars.append(var)
        self._join_to_parent(var)
        self._apply_predicates(var, step.predicates)
        return var

    def _join_to_parent(self, var: VarInfo) -> None:
        """Algorithm 1 step 2: id-join an attribute alias to its entity."""
        entity = var.parent
        anchor = getattr(entity, "_anchor", None)
        if anchor is None:
            if entity.used:
                anchor = entity
            else:
                anchor = var
        else:
            pass
        if anchor is not var:
            self.joins.append(
                f"{anchor.alias}.id = {var.alias}.id"
            )
        entity._anchor = anchor  # type: ignore[attr-defined]

    def _entity_anchor(self, entity: VarInfo) -> VarInfo:
        """The alias representing an entity in SQL (its key table when
        used directly, else the first attribute alias joined to it)."""
        anchor = getattr(entity, "_anchor", None)
        if anchor is not None:
            return anchor
        entity.used = True
        entity._anchor = entity  # type: ignore[attr-defined]
        return entity

    # -- predicates & conditions (Algorithm 1 steps 3-4) --------------------------------------

    def _apply_predicates(self, var: VarInfo, predicates: tuple) -> None:
        for predicate in predicates:
            self._add_condition(predicate, context=var)

    def _add_condition(self, node: object, context: VarInfo | None = None) -> None:
        if isinstance(node, ast.BinaryOp) and node.op == "and":
            self._add_condition(node.left, context)
            self._add_condition(node.right, context)
            return
        sql = self._condition_sql(node, context)
        if sql is not None:
            self.conditions.append(sql)

    def _condition_sql(self, node: object, context: VarInfo | None) -> str | None:
        if isinstance(node, ast.BinaryOp):
            if node.op == "or":
                left = self._condition_sql(node.left, context)
                right = self._condition_sql(node.right, context)
                return f"({left} OR {right})"
            if node.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison_sql(node, context)
            raise _unsupported(f"operator {node.op} in conditions")
        if isinstance(node, ast.FunctionCall):
            return self._function_condition(node, context)
        if isinstance(node, (ast.PathExpr, ast.VarRef)):
            # bare path predicate = existence; the inner join to the
            # attribute table (with the path's own predicates) is the test
            var = (
                self._require_var(node.name)
                if isinstance(node, ast.VarRef)
                else self._path_to_var(node, context)
            )
            var.used = True
            return None
        raise _unsupported(f"condition {type(node).__name__}")

    def _comparison_sql(self, node: ast.BinaryOp, context: VarInfo | None) -> str:
        op = {"!=": "<>"}.get(node.op, node.op)
        left_sql, left_var = self._operand(node.left, context)
        right_sql, right_var = self._operand(node.right, context)
        # 'now' substitution for tend equality (paper 4.3): range
        # predicates work on the raw end-of-time marker, equality needs
        # the current date substituted via the tendval UDF
        if op in ("=", "<>"):
            if self._is_tend_call(node.left):
                left_sql = f"tendval({left_sql})"
            if self._is_tend_call(node.right):
                right_sql = f"tendval({right_sql})"
        # literal coercion for typed columns
        if left_var is not None and isinstance(node.right, ast.Literal):
            right_sql = self._coerce_literal(node.right.value, left_var)
        if right_var is not None and isinstance(node.left, ast.Literal):
            left_sql = self._coerce_literal(node.left.value, right_var)
        return f"{left_sql} {op} {right_sql}"

    def _coerce_literal(self, value: object, var: VarInfo) -> str:
        ctype = var.value_type()
        if ctype in (ColumnType.INT, ColumnType.FLOAT) and isinstance(value, str):
            return str(value)  # numeric literal in string form
        return _sql_literal(value)

    def _operand(
        self, node: object, context: VarInfo | None
    ) -> tuple[str, VarInfo | None]:
        """Map an operand expression to SQL; returns (sql, var_if_value)."""
        if isinstance(node, ast.Literal):
            return _sql_literal(node.value), None
        if isinstance(node, ast.ContextItem):
            if context is None:
                raise _unsupported("'.' outside a predicate")
            return self._value_sql(context), context
        if isinstance(node, ast.VarRef):
            var = self._require_var(node.name)
            return self._value_sql(var), var
        if isinstance(node, ast.PathExpr):
            var = self._path_to_var(node, context)
            return self._value_sql(var), var
        if isinstance(node, ast.FunctionCall):
            return self._function_value(node, context), None
        if isinstance(node, ast.BinaryOp) and node.op in ("+", "-", "*"):
            left_sql, _ = self._operand(node.left, context)
            right_sql, _ = self._operand(node.right, context)
            sql_op = node.op
            return f"({left_sql} {sql_op} {right_sql})", None
        raise _unsupported(f"operand {type(node).__name__}")

    def _path_to_var(self, path: ast.PathExpr, context: VarInfo | None) -> VarInfo:
        if isinstance(path.start, ast.VarRef) and not path.steps:
            return self._require_var(path.start.name)
        if isinstance(path.start, ast.ContextItem) and context is not None:
            if len(path.steps) == 1:
                return self._attribute_var(
                    f"__p{self._alias_count}", self._context_entity(context),
                    path.steps[0],
                )
            raise _unsupported("deep relative path in predicate")
        return self._bind_path(f"__p{self._alias_count}", path)

    def _context_entity(self, context: VarInfo) -> VarInfo:
        if context.kind == "entity":
            return context
        return context.parent

    def _require_var(self, name: str) -> VarInfo:
        var = self.vars.get(name)
        if var is None:
            raise _unsupported(f"${name} is unbound or untranslatable")
        return var

    def _value_sql(self, var: VarInfo) -> str:
        var.used = True
        if var.kind == "entity":
            anchor = self._entity_anchor(var)
            return f"{anchor.alias}.id"
        return f"{var.alias}.{var.value_column}"

    def _alias_col(self, var: VarInfo, column: str) -> str:
        var.used = True
        return f"{var.alias}.{column}"

    # -- function translation (Algorithm 1 step 4) ----------------------------------------------

    def _function_value(self, call: ast.FunctionCall, context: VarInfo | None) -> str:
        name = call.name.lower()
        if name in ("xs:date",):
            literal = call.args[0]
            if not isinstance(literal, ast.Literal):
                raise _unsupported("xs:date of a non-literal")
            return f"DATE '{literal.value}'"
        if name == "current-date":
            return "current_date()"
        if name in ("tstart", "tend"):
            var = self._timestamp_target(call.args[0], context)
            column = self._alias_col(var, name)
            if name == "tend":
                # equality semantics need the 'now' substitution; range
                # predicates work on the raw end-of-time marker (paper 4.3)
                return column
            return column
        if name == "string":
            sql, _ = self._operand(call.args[0], context)
            return sql
        raise _unsupported(f"function {name}() in value position")

    def _timestamp_target(self, arg: object, context: VarInfo | None) -> VarInfo:
        if isinstance(arg, ast.ContextItem):
            if context is None:
                raise _unsupported("tstart(.) outside a predicate")
            return context
        if isinstance(arg, ast.VarRef):
            return self._require_var(arg.name)
        if isinstance(arg, ast.PathExpr):
            return self._path_to_var(arg, context)
        raise _unsupported("tstart/tend over a complex expression")

    def _function_condition(
        self, call: ast.FunctionCall, context: VarInfo | None
    ) -> str | None:
        name = call.name.lower()
        if name == "not":
            inner = call.args[0]
            if (
                isinstance(inner, ast.FunctionCall)
                and inner.name.lower() == "empty"
            ):
                return self._nonempty_condition(inner.args[0], context)
            inner_sql = self._condition_sql(inner, context)
            return f"NOT ({inner_sql})"
        if name in ("toverlaps", "tcontains", "tequals", "tmeets", "tprecedes"):
            left = self._interval_args(call.args[0], context)
            right = self._interval_args(call.args[1], context)
            return f"{name}({left}, {right})"
        if name == "empty":
            raise _unsupported("bare empty() condition (use not(empty(..)))")
        raise _unsupported(f"function {name}() as a condition")

    def _nonempty_condition(self, arg: object, context: VarInfo | None) -> str | None:
        """``not(empty(X))`` — existence via inner join.

        When X is an attribute var/path already joined, the inner-join
        semantics make the condition vacuous; when X is
        ``overlapinterval($a,$b)``, existence means the intervals overlap.
        """
        if isinstance(arg, ast.FunctionCall) and arg.name.lower() == "overlapinterval":
            left = self._interval_args(arg.args[0], context)
            right = self._interval_args(arg.args[1], context)
            return f"toverlaps({left}, {right})"
        if isinstance(arg, (ast.VarRef, ast.PathExpr)):
            var = (
                self._require_var(arg.name)
                if isinstance(arg, ast.VarRef)
                else self._path_to_var(arg, context)
            )
            var.used = True  # join enforces existence
            return None
        raise _unsupported("not(empty(...)) over a complex expression")

    def _interval_args(self, node: object, context: VarInfo | None) -> str:
        """Map a node to ``tstart_sql, tend_sql`` argument pairs."""
        if isinstance(node, ast.ContextItem):
            if context is None:
                raise _unsupported("'.' interval outside a predicate")
            return (
                f"{self._alias_col(context, 'tstart')}, "
                f"{self._alias_col(context, 'tend')}"
            )
        if isinstance(node, ast.VarRef):
            var = self._require_var(node.name)
            return (
                f"{self._alias_col(var, 'tstart')}, "
                f"{self._alias_col(var, 'tend')}"
            )
        if isinstance(node, ast.PathExpr):
            var = self._path_to_var(node, context)
            return (
                f"{self._alias_col(var, 'tstart')}, "
                f"{self._alias_col(var, 'tend')}"
            )
        if isinstance(node, ast.FunctionCall) and node.name.lower() == "telement":
            dates = [self._function_value(a, context) if isinstance(a, ast.FunctionCall)
                     else _sql_literal_date(a) for a in node.args]
            if len(dates) != 2:
                raise _unsupported("telement() needs two arguments")
            return f"{dates[0]}, {dates[1]}"
        raise _unsupported(f"interval argument {type(node).__name__}")

    # -- return clause (Algorithm 1 step 5) ------------------------------------------------------------

    def _return_sql(self, node: object) -> str:
        parts = self._content_sql(node)
        if len(parts) == 1:
            return parts[0]
        raise _unsupported("multi-item return without an element wrapper")

    def _content_sql(self, node: object) -> list[str]:
        if isinstance(node, ast.SequenceExpr):
            out: list[str] = []
            for item in node.items:
                out.extend(self._content_sql(item))
            return out
        if isinstance(node, ast.VarRef):
            return [self._element_sql(self._require_var(node.name))]
        if isinstance(node, ast.PathExpr):
            return [self._element_sql(self._path_to_var(node, None))]
        if isinstance(node, ast.ComputedElement):
            inner = (
                self._content_sql(node.content)
                if node.content is not None
                else []
            )
            content = ", ".join(inner)
            if content:
                return [f"XMLElement(Name \"{node.name}\", {content})"]
            return [f"XMLElement(Name \"{node.name}\")"]
        if isinstance(node, ast.DirectElement):
            inner = []
            for part in node.content:
                if isinstance(part, str):
                    inner.append(_sql_literal(part))
                else:
                    inner.extend(self._content_sql(part))
            if node.attrs:
                raise _unsupported("direct constructor attributes")
            content = ", ".join(inner)
            if content:
                return [f"XMLElement(Name \"{node.name}\", {content})"]
            return [f"XMLElement(Name \"{node.name}\")"]
        if isinstance(node, ast.FunctionCall):
            name = node.name.lower()
            if name == "overlapinterval":
                left = self._interval_args(node.args[0], None)
                right = self._interval_args(node.args[1], None)
                return [
                    "XMLElement(Name \"interval\", XMLAttributes("
                    f"datestr(overlap_start({left}, {right})) AS \"tstart\", "
                    f"datestr(overlap_end({left}, {right})) AS \"tend\"))"
                ]
            raise _unsupported(f"function {name}() in return")
        if isinstance(node, ast.BinaryOp):
            sql, _ = self._operand(node, None)
            return [sql]
        if isinstance(node, ast.Literal):
            return [_sql_literal(node.value)]
        raise _unsupported(f"return of {type(node).__name__}")

    def _element_sql(self, var: VarInfo) -> str:
        """An attribute/entity variable rendered as a timestamped element."""
        if var.kind == "entity":
            anchor = self._entity_anchor(var)
            return (
                f"XMLElement(Name \"{var.relation.name}\", XMLAttributes("
                f"datestr({anchor.alias}.tstart) AS \"tstart\", "
                f"datestr({anchor.alias}.tend) AS \"tend\"), "
                f"{anchor.alias}.id)"
            )
        tag = "id" if var.attribute == "id" else var.attribute
        value = (
            f"{var.alias}.id" if var.attribute == "id"
            else f"{var.alias}.{var.value_column}"
        )
        return (
            f"XMLElement(Name \"{tag}\", XMLAttributes("
            f"datestr({var.alias}.tstart) AS \"tstart\", "
            f"datestr({var.alias}.tend) AS \"tend\"), "
            f"{value})"
        )

    # -- FROM/WHERE assembly --------------------------------------------------------------------------------

    def _build_sql(self, select: str, order_by: str | None = None) -> str:
        sources: list[str] = []
        conditions = list(self.joins) + list(self.conditions)
        seen_aliases: set[str] = set()
        for var in self.all_vars:
            self._collect_source(var, sources, conditions, seen_aliases)
        if not sources:
            raise _unsupported("no H-table sources identified")
        sql = f"SELECT {select} FROM {', '.join(sources)}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        if order_by:
            sql += f" ORDER BY {order_by}"
        return sql

    def _collect_source(
        self,
        var: VarInfo,
        sources: list[str],
        conditions: list[str],
        seen: set[str],
    ) -> None:
        if not var.used or var.alias in seen:
            return
        if var.kind == "attribute" and var.attribute == "id":
            # shares the entity's key-table alias
            var = var.parent
            if var.alias in seen:
                return
        seen.add(var.alias)
        table = var.table
        segments = self.archis.segments
        compressed = table in self.archis.archive.compressed_tables
        segmented = segments.segmented and segments.segment_count() > 1
        if compressed or segmented:
            # correct-for-every-query full read; the optimizer's
            # segment-restriction rule narrows it when the pushed-down
            # predicates bound this alias to a snapshot/slicing window
            columns = self._table_columns(var)
            sources.append(
                f"TABLE(history_{table}()) AS {var.alias}({columns})"
            )
        else:
            sources.append(f"{table} AS {var.alias}")

    def _table_columns(self, var: VarInfo) -> str:
        table = self.archis.db.table(var.table)
        return ", ".join(table.schema.column_names)


def _sql_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def _sql_literal_date(node: object) -> str:
    if isinstance(node, ast.FunctionCall) and node.name.lower() == "xs:date":
        literal = node.args[0]
        if isinstance(literal, ast.Literal):
            return f"DATE '{literal.value}'"
    if isinstance(node, ast.Literal):
        return f"DATE '{node.value}'"
    raise _unsupported("expected a date literal")


