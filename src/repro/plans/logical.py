"""The bound (logical) query model.

After parsing and binding, a query is a :class:`LogicalQuery`: a set of base
relations, a conjunctive list of predicates, output expressions, and optional
group-by / order-by / limit clauses.  This is the representation the
optimizer enumerates over, the estimator estimates over, and — crucially for
the paper's plan-modification step — the representation from which the
*remainder* of a partially executed query is rebuilt over a temporary table.

All column references are qualified strings (``alias.column``).  Scalar and
boolean expressions compile to plain Python closures against a
:class:`~repro.storage.schema.Schema`, which is how the executor's filter,
projection and aggregation operators evaluate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..errors import BindError
from ..storage.schema import Column, DataType, Schema
from ..storage.table import Row


class CompareOp(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def python(self) -> Callable[[object, object], bool]:
        """The Python comparison implementing this operator."""
        return _COMPARE_FUNCS[self]

    @property
    def flipped(self) -> "CompareOp":
        """The operator with operand sides swapped (a < b  <=>  b > a)."""
        return _FLIPPED[self]

    @property
    def is_equality(self) -> bool:
        """Whether this is the ``=`` operator."""
        return self is CompareOp.EQ


_COMPARE_FUNCS: dict[CompareOp, Callable[[object, object], bool]] = {
    CompareOp.EQ: lambda a, b: a == b,
    CompareOp.NE: lambda a, b: a != b,
    CompareOp.LT: lambda a, b: a < b,
    CompareOp.LE: lambda a, b: a <= b,
    CompareOp.GT: lambda a, b: a > b,
    CompareOp.GE: lambda a, b: a >= b,
}

_FLIPPED = {
    CompareOp.EQ: CompareOp.EQ,
    CompareOp.NE: CompareOp.NE,
    CompareOp.LT: CompareOp.GT,
    CompareOp.LE: CompareOp.GE,
    CompareOp.GT: CompareOp.LT,
    CompareOp.GE: CompareOp.LE,
}


def qualifier_of(qualified_name: str) -> str:
    """The relation qualifier of ``alias.column`` (empty when unqualified)."""
    if "." in qualified_name:
        return qualified_name.rsplit(".", 1)[0]
    return ""


# ----------------------------------------------------------------------
# Scalar expressions
# ----------------------------------------------------------------------


class ScalarExpr:
    """Base class for bound scalar expressions."""

    def columns(self) -> frozenset[str]:
        """Qualified column names referenced by this expression."""
        raise NotImplementedError

    def compile(self, schema: Schema) -> Callable[[Row], object]:
        """Compile to a closure evaluating the expression over a row."""
        raise NotImplementedError

    def contains_function(self) -> bool:
        """Whether a user-defined function call appears anywhere inside."""
        return False

    def sql(self) -> str:
        """Render back to SQL text (used by the remainder-query deparser)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnExpr(ScalarExpr):
    """A reference to a qualified column."""

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def compile(self, schema: Schema) -> Callable[[Row], object]:
        position = schema.index_of(self.name)
        return lambda row: row[position]

    def sql(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstExpr(ScalarExpr):
    """A literal constant (int, float or string).

    ``param`` records the host-variable name (``:name``) the value was
    substituted from, when there was one.  Prepared statements use it to
    *re-plug* fresh parameter values into a cached plan, and the plan cache
    uses it to render a value-independent cache key for parameterised
    queries; it does not participate in equality.
    """

    value: object
    param: str | None = field(default=None, compare=False)

    def columns(self) -> frozenset[str]:
        return frozenset()

    def compile(self, schema: Schema) -> Callable[[Row], object]:
        value = self.value
        return lambda row: value

    def sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class ArithExpr(ScalarExpr):
    """A binary arithmetic expression (``+ - * /``)."""

    op: str
    left: ScalarExpr
    right: ScalarExpr

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: Schema) -> Callable[[Row], object]:
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        op = self.op
        if op == "+":
            return lambda row: lf(row) + rf(row)
        if op == "-":
            return lambda row: lf(row) - rf(row)
        if op == "*":
            return lambda row: lf(row) * rf(row)
        if op == "/":
            return lambda row: lf(row) / rf(row)
        raise BindError(f"unknown arithmetic operator {op!r}")

    def contains_function(self) -> bool:
        return self.left.contains_function() or self.right.contains_function()

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class NegExpr(ScalarExpr):
    """Unary numeric negation."""

    child: ScalarExpr

    def columns(self) -> frozenset[str]:
        return self.child.columns()

    def compile(self, schema: Schema) -> Callable[[Row], object]:
        cf = self.child.compile(schema)
        return lambda row: -cf(row)

    def contains_function(self) -> bool:
        return self.child.contains_function()

    def sql(self) -> str:
        return f"(-{self.child.sql()})"


@dataclass(frozen=True)
class FuncExpr(ScalarExpr):
    """A call to a registered scalar (user-defined) function.

    The optimizer cannot estimate selectivities through these — exactly the
    object-relational error source the paper motivates with — so any
    predicate containing one is treated as unknown-selectivity and gets a
    *high* inaccuracy potential.
    """

    name: str
    fn: Callable = field(compare=False, hash=False)
    args: tuple[ScalarExpr, ...] = ()

    def columns(self) -> frozenset[str]:
        cols: frozenset[str] = frozenset()
        for arg in self.args:
            cols |= arg.columns()
        return cols

    def compile(self, schema: Schema) -> Callable[[Row], object]:
        arg_fns = [a.compile(schema) for a in self.args]
        fn = self.fn
        return lambda row: fn(*(af(row) for af in arg_fns))

    def contains_function(self) -> bool:
        return True

    def sql(self) -> str:
        args = ", ".join(a.sql() for a in self.args)
        return f"{self.name}({args})"


# ----------------------------------------------------------------------
# Aggregates and output columns
# ----------------------------------------------------------------------


class AggFunc(enum.Enum):
    """Supported aggregate functions."""

    SUM = "sum"
    AVG = "avg"
    COUNT = "count"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggregateExpr:
    """An aggregate call; ``arg`` is None only for ``COUNT(*)``."""

    func: AggFunc
    arg: ScalarExpr | None = None

    def columns(self) -> frozenset[str]:
        """Qualified columns referenced by the aggregate's argument."""
        return self.arg.columns() if self.arg is not None else frozenset()

    def sql(self) -> str:
        """Render back to SQL."""
        inner = self.arg.sql() if self.arg is not None else "*"
        return f"{self.func.value}({inner})"


@dataclass(frozen=True)
class OutputColumn:
    """One item of the SELECT list: a name plus a scalar or aggregate expr."""

    name: str
    expr: ScalarExpr | AggregateExpr

    @property
    def is_aggregate(self) -> bool:
        """Whether this output is an aggregate."""
        return isinstance(self.expr, AggregateExpr)

    def columns(self) -> frozenset[str]:
        """Qualified columns referenced."""
        return self.expr.columns()

    def sql(self) -> str:
        """Render as ``expr AS name``."""
        return f"{self.expr.sql()} AS {self.name}"


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------


class Predicate:
    """Base class for bound boolean predicates (one conjunct each)."""

    def columns(self) -> frozenset[str]:
        """Qualified columns referenced."""
        raise NotImplementedError

    def qualifiers(self) -> frozenset[str]:
        """Relation aliases referenced by this predicate."""
        return frozenset(qualifier_of(c) for c in self.columns())

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        """Compile to a row -> bool closure."""
        raise NotImplementedError

    def contains_function(self) -> bool:
        """Whether a UDF call appears inside (unknown selectivity)."""
        return False

    @property
    def is_parameter_based(self) -> bool:
        """Whether the predicate compares against a host-language parameter."""
        return False

    def sql(self) -> str:
        """Render back to SQL text."""
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left op right`` between scalar expressions.

    ``param_based`` marks comparisons whose constant came from a host
    variable (``:name``): the value is known to the *executor* but treated as
    unknown by the *estimator*, mirroring compile-time optimization of
    parameterised queries (a paper-cited error source).
    """

    op: CompareOp
    left: ScalarExpr
    right: ScalarExpr
    param_based: bool = False

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        cmp = self.op.python
        return lambda row: cmp(lf(row), rf(row))

    def contains_function(self) -> bool:
        return self.left.contains_function() or self.right.contains_function()

    @property
    def is_parameter_based(self) -> bool:
        return self.param_based

    @property
    def is_column_to_column(self) -> bool:
        """True when both sides are bare column references."""
        return isinstance(self.left, ColumnExpr) and isinstance(self.right, ColumnExpr)

    @property
    def is_equi_join(self) -> bool:
        """True for ``a.x = b.y`` with the two sides on different relations."""
        if not (self.op.is_equality and self.is_column_to_column):
            return False
        return len(self.qualifiers()) == 2

    def column_and_constant(self) -> tuple[str, object] | None:
        """``(column, value)`` when this compares one column to a constant."""
        if isinstance(self.left, ColumnExpr) and isinstance(self.right, ConstExpr):
            return (self.left.name, self.right.value)
        if isinstance(self.right, ColumnExpr) and isinstance(self.left, ConstExpr):
            return (self.right.name, self.left.value)
        return None

    def normalized(self) -> "Comparison":
        """Return an equivalent comparison with any constant on the right."""
        if isinstance(self.left, ConstExpr) and isinstance(self.right, ColumnExpr):
            return Comparison(self.op.flipped, self.right, self.left, self.param_based)
        return self

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op.value} {self.right.sql()}"


@dataclass(frozen=True)
class InPredicate(Predicate):
    """``expr IN (v1, v2, ...)`` against constants."""

    expr: ScalarExpr
    values: tuple

    def columns(self) -> frozenset[str]:
        return self.expr.columns()

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        ef = self.expr.compile(schema)
        values = set(self.values)
        return lambda row: ef(row) in values

    def contains_function(self) -> bool:
        return self.expr.contains_function()

    def sql(self) -> str:
        rendered = ", ".join(ConstExpr(v).sql() for v in self.values)
        return f"{self.expr.sql()} IN ({rendered})"


@dataclass(frozen=True)
class OrPredicate(Predicate):
    """A disjunction of sub-predicates (kept as one conjunct)."""

    children: tuple[Predicate, ...]

    def columns(self) -> frozenset[str]:
        cols: frozenset[str] = frozenset()
        for child in self.children:
            cols |= child.columns()
        return cols

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        fns = [c.compile(schema) for c in self.children]
        return lambda row: any(fn(row) for fn in fns)

    def contains_function(self) -> bool:
        return any(c.contains_function() for c in self.children)

    @property
    def is_parameter_based(self) -> bool:
        return any(c.is_parameter_based for c in self.children)

    def sql(self) -> str:
        return "(" + " OR ".join(c.sql() for c in self.children) + ")"


@dataclass(frozen=True)
class AndPredicate(Predicate):
    """A nested conjunction (only appears *inside* OR/NOT; top-level ANDs are
    flattened into separate conjuncts by the binder)."""

    children: tuple[Predicate, ...]

    def columns(self) -> frozenset[str]:
        cols: frozenset[str] = frozenset()
        for child in self.children:
            cols |= child.columns()
        return cols

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        fns = [c.compile(schema) for c in self.children]
        return lambda row: all(fn(row) for fn in fns)

    def contains_function(self) -> bool:
        return any(c.contains_function() for c in self.children)

    @property
    def is_parameter_based(self) -> bool:
        return any(c.is_parameter_based for c in self.children)

    def sql(self) -> str:
        return "(" + " AND ".join(c.sql() for c in self.children) + ")"


@dataclass(frozen=True)
class NotPredicate(Predicate):
    """Negation of a sub-predicate."""

    child: Predicate

    def columns(self) -> frozenset[str]:
        return self.child.columns()

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        fn = self.child.compile(schema)
        return lambda row: not fn(row)

    def contains_function(self) -> bool:
        return self.child.contains_function()

    @property
    def is_parameter_based(self) -> bool:
        return self.child.is_parameter_based

    def sql(self) -> str:
        return f"NOT ({self.child.sql()})"


# ----------------------------------------------------------------------
# The query
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BaseRelation:
    """One FROM-clause entry: a catalog table under an alias."""

    table_name: str
    alias: str

    def sql(self) -> str:
        """Render as ``table alias`` (or just ``table``)."""
        if self.alias.lower() == self.table_name.lower():
            return self.table_name
        return f"{self.table_name} {self.alias}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: an output-column name plus direction."""

    name: str
    ascending: bool = True

    def sql(self) -> str:
        """Render back to SQL."""
        return self.name if self.ascending else f"{self.name} DESC"


@dataclass(frozen=True)
class LogicalQuery:
    """A fully bound query, ready for optimization."""

    relations: tuple[BaseRelation, ...]
    predicates: tuple[Predicate, ...]
    output: tuple[OutputColumn, ...]
    group_by: tuple[str, ...] = ()
    #: HAVING conjuncts; their column references name *output* columns.
    having: tuple[Predicate, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    #: SELECT DISTINCT: duplicate output rows are eliminated.
    distinct: bool = False

    @property
    def has_aggregates(self) -> bool:
        """Whether any output column is an aggregate."""
        return any(item.is_aggregate for item in self.output)

    @property
    def join_count(self) -> int:
        """Number of joins (relations minus one) — the paper's complexity measure."""
        return max(0, len(self.relations) - 1)

    def relation_for_alias(self, alias: str) -> BaseRelation:
        """The FROM entry registered under ``alias``."""
        for rel in self.relations:
            if rel.alias == alias:
                return rel
        raise BindError(f"unknown relation alias {alias!r}")

    def selection_predicates(self, alias: str) -> list[Predicate]:
        """Predicates that touch only the given relation."""
        return [p for p in self.predicates if p.qualifiers() == frozenset({alias})]

    def sql(self) -> str:
        """Deparse the whole query back to SQL text."""
        from ..sql.deparser import deparse  # local import avoids a cycle

        return deparse(self)


# ----------------------------------------------------------------------
# Host-variable substitution
# ----------------------------------------------------------------------


def substitute_expr(expr: ScalarExpr, values: Mapping[str, object]) -> ScalarExpr:
    """Rebuild ``expr`` with parameter-born constants replaced from ``values``.

    Constants carrying a :attr:`ConstExpr.param` name found in ``values`` get
    the mapped value; everything else is returned unchanged (identity-
    preserved, so callers can detect whether anything was substituted with
    an ``is`` check).
    """
    if isinstance(expr, ConstExpr):
        if expr.param is not None and expr.param in values:
            return ConstExpr(values[expr.param], param=expr.param)
        return expr
    if isinstance(expr, ArithExpr):
        left = substitute_expr(expr.left, values)
        right = substitute_expr(expr.right, values)
        if left is expr.left and right is expr.right:
            return expr
        return ArithExpr(expr.op, left, right)
    if isinstance(expr, NegExpr):
        child = substitute_expr(expr.child, values)
        return expr if child is expr.child else NegExpr(child)
    if isinstance(expr, FuncExpr):
        args = tuple(substitute_expr(a, values) for a in expr.args)
        if all(a is b for a, b in zip(args, expr.args)):
            return expr
        return FuncExpr(name=expr.name, fn=expr.fn, args=args)
    return expr


def substitute_predicate(pred: Predicate, values: Mapping[str, object]) -> Predicate:
    """Rebuild ``pred`` with parameter-born constants replaced from ``values``."""
    if isinstance(pred, Comparison):
        left = substitute_expr(pred.left, values)
        right = substitute_expr(pred.right, values)
        if left is pred.left and right is pred.right:
            return pred
        return Comparison(pred.op, left, right, pred.param_based)
    if isinstance(pred, InPredicate):
        expr = substitute_expr(pred.expr, values)
        return pred if expr is pred.expr else InPredicate(expr, pred.values)
    if isinstance(pred, (AndPredicate, OrPredicate)):
        children = tuple(substitute_predicate(c, values) for c in pred.children)
        if all(a is b for a, b in zip(children, pred.children)):
            return pred
        return type(pred)(children)
    if isinstance(pred, NotPredicate):
        child = substitute_predicate(pred.child, values)
        return pred if child is pred.child else NotPredicate(child)
    return pred


def substitute_output(
    item: OutputColumn, values: Mapping[str, object]
) -> OutputColumn:
    """Rebuild an output column with parameter-born constants replaced."""
    if isinstance(item.expr, AggregateExpr):
        if item.expr.arg is None:
            return item
        arg = substitute_expr(item.expr.arg, values)
        if arg is item.expr.arg:
            return item
        return OutputColumn(item.name, AggregateExpr(item.expr.func, arg))
    expr = substitute_expr(item.expr, values)
    return item if expr is item.expr else OutputColumn(item.name, expr)


def substitute_query(query: LogicalQuery, values: Mapping[str, object]) -> LogicalQuery:
    """Rebuild a bound query with parameter-born constants replaced."""
    predicates = tuple(substitute_predicate(p, values) for p in query.predicates)
    having = tuple(substitute_predicate(p, values) for p in query.having)
    output = tuple(substitute_output(i, values) for i in query.output)
    if (
        all(a is b for a, b in zip(predicates, query.predicates))
        and all(a is b for a, b in zip(having, query.having))
        and all(a is b for a, b in zip(output, query.output))
    ):
        return query
    return LogicalQuery(
        relations=query.relations,
        predicates=predicates,
        output=output,
        group_by=query.group_by,
        having=having,
        order_by=query.order_by,
        limit=query.limit,
        distinct=query.distinct,
    )


def parameter_names(query: LogicalQuery) -> frozenset[str]:
    """All host-variable names whose values are embedded in ``query``."""
    names: set[str] = set()

    def visit_expr(expr: ScalarExpr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, ConstExpr):
            if expr.param is not None:
                names.add(expr.param)
        elif isinstance(expr, ArithExpr):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, NegExpr):
            visit_expr(expr.child)
        elif isinstance(expr, FuncExpr):
            for arg in expr.args:
                visit_expr(arg)

    def visit_pred(pred: Predicate) -> None:
        if isinstance(pred, Comparison):
            visit_expr(pred.left)
            visit_expr(pred.right)
        elif isinstance(pred, InPredicate):
            visit_expr(pred.expr)
        elif isinstance(pred, (AndPredicate, OrPredicate)):
            for child in pred.children:
                visit_pred(child)
        elif isinstance(pred, NotPredicate):
            visit_pred(pred.child)

    for pred in query.predicates:
        visit_pred(pred)
    for pred in query.having:
        visit_pred(pred)
    for item in query.output:
        if isinstance(item.expr, AggregateExpr):
            visit_expr(item.expr.arg)
        else:
            visit_expr(item.expr)
    return frozenset(names)


def infer_dtype(expr: ScalarExpr | AggregateExpr, schema: Schema) -> DataType:
    """Infer the result type of an expression against ``schema``."""
    if isinstance(expr, AggregateExpr):
        if expr.func is AggFunc.COUNT:
            return DataType.INTEGER
        if expr.func in (AggFunc.SUM, AggFunc.AVG):
            return DataType.FLOAT
        return infer_dtype(expr.arg, schema) if expr.arg is not None else DataType.INTEGER
    if isinstance(expr, ColumnExpr):
        return schema.column(expr.name).dtype
    if isinstance(expr, ConstExpr):
        if isinstance(expr.value, bool):
            return DataType.INTEGER
        if isinstance(expr.value, int):
            return DataType.INTEGER
        if isinstance(expr.value, float):
            return DataType.FLOAT
        return DataType.STRING
    if isinstance(expr, (ArithExpr, NegExpr)):
        return DataType.FLOAT
    if isinstance(expr, FuncExpr):
        return DataType.FLOAT
    raise BindError(f"cannot infer type of {expr!r}")


def output_schema(
    output: Sequence[OutputColumn], input_schema: Schema
) -> Schema:
    """Schema of the rows produced by a projection/aggregation."""
    columns = []
    for item in output:
        dtype = infer_dtype(item.expr, input_schema)
        columns.append(Column(item.name, dtype))
    return Schema(columns)
