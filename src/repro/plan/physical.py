"""Volcano-style physical operators compiled from an optimized plan.

``compile_plan`` walks the logical tree bottom-up and builds one operator
per node.  Expressions are compiled to closures once, at construction;
``rows(params)`` then pulls lazily through the pipeline.

Leaf operators (and ``FilterOp`` above them) additionally expose
``rid_rows(params)`` yielding ``(rid, env)`` pairs so UPDATE/DELETE can
reuse the same access paths the optimizer picked for SELECT.

Row flow matches :mod:`repro.plan.nodes`: environments (dicts keyed by
``(alias, column)``) below ``Project``/``Aggregate``, output tuples above.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Mapping

from repro.errors import SqlPlanError
from repro.obs.metrics import get_registry
from repro.plan import nodes
from repro.sql import ast
from repro.sql.expr import AGGREGATE_NAMES, Scope, compile_expr
from repro.sql.sqlxml import xml_agg

Env = dict

#: Rows pulled from base tables / table functions before filtering.  The
#: count accumulates in a local and is flushed once per scan (in a
#: ``finally``), so the per-row cost is a plain integer increment.
_ROWS_SCANNED = get_registry().counter("sql.rows_scanned")

class _Top:
    """Sorts after every real value: pads composite-index range bounds.

    A bound ``(2,)`` compares *less* than key ``(2, x)`` under tuple
    ordering, so an inclusive high bound on an index prefix must be padded
    to ``(2, _TOP)`` to admit all keys sharing the prefix.
    """

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return other is not self

    def __le__(self, other) -> bool:
        return other is self

    def __ge__(self, other) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0x70FF


_TOP = _Top()


class ExecContext:
    """Shared compilation context: database, name scope, scalar functions."""

    def __init__(self, db, scope: Scope, functions: Mapping) -> None:
        self.db = db
        self.scope = scope
        self.functions = functions

    def compile(self, node):
        return compile_expr(node, self.scope, self.functions)

    def compile_const(self, node):
        """Compile a scope-free value expression (literals and params)."""
        return compile_expr(node, Scope({}), self.functions)


def compile_plan(plan, ctx: ExecContext):
    """Compile a logical plan node into its physical operator."""
    if isinstance(plan, nodes.Scan):
        return SeqScanOp(plan, ctx)
    if isinstance(plan, nodes.IndexScan):
        return IndexScanOp(plan, ctx)
    if isinstance(plan, nodes.FunctionScan):
        return FunctionScanOp(plan, ctx)
    if isinstance(plan, nodes.Join):
        left = compile_plan(plan.left, ctx)
        right = compile_plan(plan.right, ctx)
        if plan.strategy == "hash":
            return HashJoinOp(left, right, plan.pairs)
        return NestedLoopOp(left, right)
    if isinstance(plan, nodes.Filter):
        return FilterOp(compile_plan(plan.child, ctx), plan.predicates, ctx)
    if isinstance(plan, nodes.Sort):
        return SortOp(compile_plan(plan.child, ctx), plan.keys, ctx)
    if isinstance(plan, nodes.Project):
        return ProjectOp(compile_plan(plan.child, ctx), plan.items, ctx)
    if isinstance(plan, nodes.Aggregate):
        return AggregateOp(compile_plan(plan.child, ctx), plan, ctx)
    if isinstance(plan, nodes.Distinct):
        return DistinctOp(compile_plan(plan.child, ctx))
    if isinstance(plan, nodes.Limit):
        return LimitOp(compile_plan(plan.child, ctx), plan.count)
    if isinstance(plan, nodes.TemporalJoin):
        from repro.plan.temporal import TemporalJoinOp

        return TemporalJoinOp(
            compile_plan(plan.left, ctx), compile_plan(plan.right, ctx), plan
        )
    if isinstance(plan, nodes.Coalesce):
        from repro.plan.temporal import CoalesceOp

        return CoalesceOp(compile_plan(plan.child, ctx), plan)
    if isinstance(plan, nodes.SequencedAggregate):
        from repro.plan.temporal import SequencedAggregateOp

        return SequencedAggregateOp(compile_plan(plan.child, ctx), plan, ctx)
    raise SqlPlanError(f"cannot compile plan node {type(plan).__name__}")


# -- leaf scans ---------------------------------------------------------------


class SeqScanOp:
    name = "SeqScan"

    def __init__(self, plan: nodes.Scan, ctx: ExecContext) -> None:
        self.plan = plan
        self.ctx = ctx
        self.filters = [ctx.compile(p) for p in plan.predicates]
        self.columns = ctx.scope.columns_by_alias[plan.alias]

    def rows(self, params: Mapping) -> Iterator[Env]:
        for _, env in self.rid_rows(params):
            yield env

    def rid_rows(self, params: Mapping):
        table = self.ctx.db.table(self.plan.table)
        names = self.columns
        alias = self.plan.alias
        filters = self.filters
        scanned = 0
        try:
            for rid, row in table.scan():
                scanned += 1
                env = {(alias, name): value for name, value in zip(names, row)}
                if all(f(env, params) for f in filters):
                    yield rid, env
        finally:
            _ROWS_SCANNED.inc(scanned)


class IndexScanOp:
    name = "IndexScan"

    def __init__(self, plan: nodes.IndexScan, ctx: ExecContext) -> None:
        self.plan = plan
        self.ctx = ctx
        self.eq_values = [ctx.compile_const(v) for _, v in plan.eq]
        self.low = ctx.compile_const(plan.low) if plan.low is not None else None
        self.high = (
            ctx.compile_const(plan.high) if plan.high is not None else None
        )
        self.filters = [ctx.compile(p) for p in plan.predicates]
        self.columns = ctx.scope.columns_by_alias[plan.alias]

    def rows(self, params: Mapping) -> Iterator[Env]:
        for _, env in self.rid_rows(params):
            yield env

    def rid_rows(self, params: Mapping):
        names = self.columns
        alias = self.plan.alias
        filters = self.filters
        scanned = 0
        try:
            for rid, row in self._index_rows(params):
                scanned += 1
                env = {(alias, name): value for name, value in zip(names, row)}
                if all(f(env, params) for f in filters):
                    yield rid, env
        finally:
            _ROWS_SCANNED.inc(scanned)

    def _index_rows(self, params: Mapping):
        plan = self.plan
        table = self.ctx.db.table(plan.table)
        prefix = tuple(v(None, params) for v in self.eq_values)
        if plan.range_column is not None:
            low_val = self.low(None, params) if self.low is not None else None
            high_val = (
                self.high(None, params) if self.high is not None else None
            )
            if high_val is None and prefix:
                # prefix-bounded from above only: emulate with prefix scan
                yield from self._prefix_scan(table, prefix)
                return
            # pad bounds so keys extending the bound tuple compare correctly
            if low_val is None:
                low_key = prefix or None
            elif plan.low_inclusive:
                low_key = prefix + (low_val,)
            else:
                low_key = prefix + (low_val, _TOP)
            if high_val is None:
                high_key = None
            elif plan.high_inclusive:
                high_key = prefix + (high_val, _TOP)
            else:
                high_key = prefix + (high_val,)
            yield from table.index_scan(
                plan.index_name,
                low_key,
                high_key,
                low_inclusive=True,
                high_inclusive=False,
            )
            return
        if prefix:
            yield from self._prefix_scan(table, prefix)
            return
        yield from table.index_scan(plan.index_name)

    def _prefix_scan(self, table, prefix: tuple):
        info = table.indexes[self.plan.index_name]
        for key, rid in info.tree.prefix(prefix):
            yield rid, table.read(rid)


class FunctionScanOp:
    name = "FunctionScan"

    def __init__(self, plan: nodes.FunctionScan, ctx: ExecContext) -> None:
        self.plan = plan
        self.ctx = ctx
        self.args = [ctx.compile_const(a) for a in plan.args]
        self.filters = [ctx.compile(p) for p in plan.predicates]
        self.columns = ctx.scope.columns_by_alias[plan.alias]

    def rows(self, params: Mapping) -> Iterator[Env]:
        fn = self.ctx.db.table_function(self.plan.function)
        if fn is None:
            raise SqlPlanError(
                f"unknown table function {self.plan.function}()"
            )
        args = [a(None, params) for a in self.args]
        names = self.columns
        alias = self.plan.alias
        filters = self.filters
        scanned = 0
        try:
            for row in fn(*args):
                scanned += 1
                env = {(alias, name): value for name, value in zip(names, row)}
                if all(f(env, params) for f in filters):
                    yield env
        finally:
            _ROWS_SCANNED.inc(scanned)


# -- joins and filters --------------------------------------------------------


class HashJoinOp:
    name = "HashJoin"

    def __init__(self, left, right, pairs: tuple) -> None:
        self.left = left
        self.right = right
        self.pairs = pairs
        self.left_keys = [pair[0] for pair in pairs]
        self.right_keys = [pair[1] for pair in pairs]

    def rows(self, params: Mapping) -> Iterator[Env]:
        build: dict[tuple, list[Env]] = {}
        for env in self.right.rows(params):
            key = tuple(env.get(k) for k in self.right_keys)
            if None in key:
                continue
            build.setdefault(key, []).append(env)
        for env in self.left.rows(params):
            key = tuple(env.get(k) for k in self.left_keys)
            for match in build.get(key, ()):  # inner join
                merged = dict(env)
                merged.update(match)
                yield merged


class NestedLoopOp:
    name = "NestedLoop"

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def rows(self, params: Mapping) -> Iterator[Env]:
        inner = list(self.right.rows(params))
        for env in self.left.rows(params):
            for match in inner:
                merged = dict(env)
                merged.update(match)
                yield merged


class FilterOp:
    name = "Filter"

    def __init__(self, child, predicates: tuple, ctx: ExecContext) -> None:
        self.child = child
        self.predicates = predicates
        self.filters = [ctx.compile(p) for p in predicates]

    def rows(self, params: Mapping) -> Iterator[Env]:
        filters = self.filters
        for env in self.child.rows(params):
            if all(f(env, params) for f in filters):
                yield env

    def rid_rows(self, params: Mapping):
        filters = self.filters
        for rid, env in self.child.rid_rows(params):
            if all(f(env, params) for f in filters):
                yield rid, env


# -- sorting, projection, aggregation ----------------------------------------


class SortOp:
    name = "Sort"

    def __init__(self, child, keys: tuple, ctx: ExecContext) -> None:
        self.child = child
        self.keys = [
            (ctx.compile(expr), descending) for expr, descending in keys
        ]

    def rows(self, params: Mapping) -> Iterator[Env]:
        materialized = list(self.child.rows(params))
        for key, descending in reversed(self.keys):
            materialized.sort(
                key=lambda env: _null_safe_key(key(env, params)),
                reverse=descending,
            )
        return iter(materialized)


class ProjectOp:
    name = "Project"

    def __init__(self, child, items: tuple, ctx: ExecContext) -> None:
        self.child = child
        self.items = items
        self.exprs = [ctx.compile(item.expr) for item in items]

    def rows(self, params: Mapping) -> Iterator[tuple]:
        exprs = self.exprs
        for env in self.child.rows(params):
            yield tuple(expr(env, params) for expr in exprs)


class AggregateOp:
    name = "Aggregate"

    def __init__(self, child, plan: nodes.Aggregate, ctx: ExecContext) -> None:
        self.child = child
        self.plan = plan
        self.group_keys = [ctx.compile(g) for g in plan.group_by]
        self.agg_specs: list[_AggSpec] = []
        self.item_exprs = []
        for item in plan.items:
            rewritten = _rewrite_aggregates(
                item.expr, self.agg_specs, ctx.scope, ctx.functions
            )
            self.item_exprs.append(ctx.compile(rewritten))
        self.order_keys = []
        for expr, descending in plan.order_by:
            rewritten = _rewrite_aggregates(
                expr, self.agg_specs, ctx.scope, ctx.functions
            )
            self.order_keys.append((ctx.compile(rewritten), descending))

    def rows(self, params: Mapping) -> Iterator[tuple]:
        groups: dict[tuple, list[Env]] = {}
        representative: dict[tuple, Env] = {}
        for env in self.child.rows(params):
            key = tuple(k(env, params) for k in self.group_keys)
            groups.setdefault(key, []).append(env)
            representative.setdefault(key, env)
        if not groups and not self.group_keys:
            groups[()] = []
            representative[()] = {}
        out = []
        for key, members in groups.items():
            env = representative[key]
            agg_params = dict(params)
            for spec in self.agg_specs:
                agg_params[spec.placeholder] = spec.finish(members, params)
            row = tuple(item(env, agg_params) for item in self.item_exprs)
            order_key = tuple(
                _null_safe_key(k(env, agg_params)) for k, _ in self.order_keys
            )
            out.append((order_key, row))
        if self.order_keys:
            descending = [d for _, d in self.order_keys]
            # sort per key direction (stable, last key first)
            for index in reversed(range(len(descending))):
                out.sort(
                    key=lambda pair: pair[0][index], reverse=descending[index]
                )
        for _, row in out:
            yield row


class DistinctOp:
    name = "Distinct"

    def __init__(self, child) -> None:
        self.child = child

    def rows(self, params: Mapping) -> Iterator[tuple]:
        seen = set()
        for row in self.child.rows(params):
            key = tuple(
                str(v) if not isinstance(v, (int, float, str, type(None))) else v
                for v in row
            )
            if key not in seen:
                seen.add(key)
                yield row


class LimitOp:
    name = "Limit"

    def __init__(self, child, count: int) -> None:
        self.child = child
        self.count = count

    def rows(self, params: Mapping) -> Iterator[tuple]:
        return islice(self.child.rows(params), self.count)


# -- aggregate machinery ------------------------------------------------------


class _AggSpec:
    """One aggregate occurrence, rewritten to a synthetic parameter."""

    def __init__(self, placeholder: str, node, scope: Scope, functions) -> None:
        self.placeholder = placeholder
        self.node = node
        if isinstance(node, ast.XmlAggExpr):
            self.kind = "xmlagg"
            self.operand = compile_expr(node.operand, scope, functions)
            self.order_keys = [
                (compile_expr(spec.expr, scope, functions), spec.descending)
                for spec in node.order_by
            ]
        else:
            self.kind = node.name
            self.distinct = node.distinct
            if len(node.args) == 1 and isinstance(node.args[0], ast.Star):
                self.operand = None
            elif len(node.args) == 1:
                self.operand = compile_expr(node.args[0], scope, functions)
            else:
                raise SqlPlanError(
                    f"aggregate {node.name}() takes one argument"
                )

    def finish(self, rows: list[Env], params: Mapping):
        if self.kind == "xmlagg":
            if self.order_keys:
                def sort_key(env):
                    return tuple(
                        (-k(env, params) if desc else k(env, params))
                        for k, desc in self.order_keys
                    )
                rows = sorted(rows, key=sort_key)
            return xml_agg([self.operand(env, params) for env in rows])
        if self.kind == "count":
            if self.operand is None:
                return len(rows)
            values = [
                v
                for v in (self.operand(env, params) for env in rows)
                if v is not None
            ]
            if self.distinct:
                return len(set(values))
            return len(values)
        values = [
            v
            for v in (self.operand(env, params) for env in rows)
            if v is not None
        ]
        if self.distinct:
            values = list(dict.fromkeys(values))
        if not values:
            return None
        if self.kind == "sum":
            return sum(values)
        if self.kind == "avg":
            return sum(values) / len(values)
        if self.kind == "min":
            return min(values)
        if self.kind == "max":
            return max(values)
        raise SqlPlanError(f"unknown aggregate {self.kind}")


def _rewrite_aggregates(node, specs: list, scope: Scope, functions):
    """Replace aggregate sub-expressions with synthetic Param nodes."""
    if isinstance(node, ast.XmlAggExpr) or (
        isinstance(node, ast.FunctionCall) and node.name in AGGREGATE_NAMES
    ):
        placeholder = f"__agg{len(specs)}"
        specs.append(_AggSpec(placeholder, node, scope, functions))
        return ast.Param(placeholder)
    if isinstance(node, ast.BinaryOp):
        return ast.BinaryOp(
            node.op,
            _rewrite_aggregates(node.left, specs, scope, functions),
            _rewrite_aggregates(node.right, specs, scope, functions),
        )
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(
            node.op, _rewrite_aggregates(node.operand, specs, scope, functions)
        )
    if isinstance(node, ast.FunctionCall):
        return ast.FunctionCall(
            node.name,
            tuple(
                _rewrite_aggregates(a, specs, scope, functions)
                for a in node.args
            ),
            node.distinct,
        )
    if isinstance(node, ast.XmlElementExpr):
        return ast.XmlElementExpr(
            node.tag,
            tuple(
                ast.XmlAttribute(
                    _rewrite_aggregates(a.value, specs, scope, functions),
                    a.name,
                )
                for a in node.attributes
            ),
            tuple(
                _rewrite_aggregates(c, specs, scope, functions)
                for c in node.content
            ),
        )
    if isinstance(node, ast.CaseExpr):
        return ast.CaseExpr(
            tuple(
                (
                    _rewrite_aggregates(c, specs, scope, functions),
                    _rewrite_aggregates(r, specs, scope, functions),
                )
                for c, r in node.whens
            ),
            _rewrite_aggregates(node.else_result, specs, scope, functions)
            if node.else_result is not None
            else None,
        )
    return node


def _null_safe_key(value):
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, value)
    return (2, str(value))
