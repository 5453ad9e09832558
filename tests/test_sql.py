"""Tests for the SQL front end: lexer, parser, binder, deparser."""

import pytest

from repro.errors import BindError, LexerError, ParseError
from repro.plans.logical import (
    AggFunc,
    AggregateExpr,
    ColumnExpr,
    CompareOp,
    Comparison,
    ConstExpr,
    FuncExpr,
    InPredicate,
    NotPredicate,
    OrPredicate,
)
from repro.sql import bind, deparse, parse, tokenize
from repro.sql.lexer import TokenType
from repro.storage.schema import date_to_int

from .conftest import make_two_table_db


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT select SeLeCt")
        assert all(t.is_keyword("select") for t in tokens[:-1])

    def test_identifiers_and_symbols(self):
        tokens = tokenize("foo.bar <= 3")
        kinds = [t.type for t in tokens]
        assert kinds == [
            TokenType.IDENT,
            TokenType.SYMBOL,
            TokenType.IDENT,
            TokenType.SYMBOL,
            TokenType.NUMBER,
            TokenType.EOF,
        ]

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].value == "42"
        assert tokens[1].value == "3.14"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_parameter(self):
        tokens = tokenize(":value1")
        assert tokens[0].type is TokenType.PARAM
        assert tokens[0].value == "value1"

    def test_parameter_requires_name(self):
        with pytest.raises(LexerError):
            tokenize(": 5")

    def test_not_equal_variants(self):
        assert tokenize("a <> b")[1].value == "<>"
        assert tokenize("a != b")[1].value == "<>"

    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert tokens[1].type is TokenType.NUMBER

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("SELECT @")


class TestParser:
    def test_basic_select(self):
        stmt = parse("SELECT a, b FROM t WHERE a = 1")
        assert len(stmt.items) == 2
        assert stmt.tables[0].name == "t"
        assert stmt.where is not None

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.select_star

    def test_aliases(self):
        stmt = parse("SELECT t.a AS x, b y FROM tbl AS t, other o")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.tables[0].alias == "t"
        assert stmt.tables[1].alias == "o"

    def test_group_order_limit(self):
        stmt = parse(
            "SELECT a, count(*) FROM t GROUP BY a ORDER BY a DESC LIMIT 7"
        )
        assert len(stmt.group_by) == 1
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 7

    def test_between_and_in(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)")
        assert stmt.where is not None

    def test_date_literal(self):
        stmt = parse("SELECT a FROM t WHERE a < DATE '1995-03-15'")
        comparison = stmt.where
        assert comparison.right.value == date_to_int("1995-03-15")

    def test_invalid_date(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t WHERE a < DATE 'xxx'")

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * 2 FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parenthesized_condition(self):
        stmt = parse("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert stmt.where is not None

    def test_aggregates(self):
        stmt = parse("SELECT sum(a), count(*), avg(a * 2) FROM t")
        assert stmt.items[0].expr.func == "sum"
        assert stmt.items[1].expr.arg is None

    def test_count_star_only(self):
        with pytest.raises(ParseError):
            parse("SELECT sum(*) FROM t")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t extra ,")

    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse("SELECT a WHERE a = 1")

    def test_not_condition(self):
        stmt = parse("SELECT a FROM t WHERE NOT a = 1")
        assert stmt.where is not None

    def test_function_call(self):
        stmt = parse("SELECT a FROM t WHERE dist(a, 5) < 2")
        assert stmt.where.left.name == "dist"

    def test_negative_numbers(self):
        stmt = parse("SELECT a FROM t WHERE a > -5")
        assert stmt.where is not None


class TestBinder:
    def test_resolves_columns(self, two_table_db):
        query = two_table_db.bind_sql("SELECT r1.a FROM r1")
        assert query.output[0].expr.name == "r1.a"

    def test_bare_column_resolution(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a FROM r1")
        assert query.output[0].expr.name == "r1.a"

    def test_ambiguous_column_rejected(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT id FROM r1, r2")

    def test_unknown_table(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT x FROM missing")

    def test_unknown_column(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT nope FROM r1")

    def test_duplicate_alias_rejected(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT 1 one FROM r1 x, r2 x")

    def test_conjunct_flattening(self, two_table_db):
        query = two_table_db.bind_sql(
            "SELECT r1.a FROM r1 WHERE a < 5 AND b > 2 AND a <> 3"
        )
        assert len(query.predicates) == 3

    def test_between_split_into_two_comparisons(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a FROM r1 WHERE a BETWEEN 2 AND 8")
        assert len(query.predicates) == 2
        ops = {p.op for p in query.predicates}
        assert ops == {CompareOp.GE, CompareOp.LE}

    def test_or_kept_as_one_conjunct(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a FROM r1 WHERE a = 1 OR a = 2 OR a = 3")
        assert len(query.predicates) == 1
        assert isinstance(query.predicates[0], OrPredicate)
        assert len(query.predicates[0].children) == 3

    def test_not_predicate(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a FROM r1 WHERE NOT a = 1")
        assert isinstance(query.predicates[0], NotPredicate)

    def test_in_predicate(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a FROM r1 WHERE a IN (1, 2, 3)")
        pred = query.predicates[0]
        assert isinstance(pred, InPredicate)
        assert pred.values == (1, 2, 3)

    def test_in_requires_constants(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT a FROM r1 WHERE a IN (b, 2)")

    def test_parameter_substitution_marks_predicate(self, two_table_db):
        query = two_table_db.bind_sql(
            "SELECT a FROM r1 WHERE a < :limit", params={"limit": 9}
        )
        pred = query.predicates[0]
        assert isinstance(pred, Comparison)
        assert pred.is_parameter_based
        assert isinstance(pred.right, ConstExpr) and pred.right.value == 9

    def test_missing_parameter(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT a FROM r1 WHERE a < :limit")

    def test_normalization_const_on_left(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a FROM r1 WHERE 5 > a")
        pred = query.predicates[0]
        assert isinstance(pred.left, ColumnExpr)
        assert pred.op is CompareOp.LT

    def test_aggregate_validation(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT b, sum(a) FROM r1 GROUP BY a")
        query = two_table_db.bind_sql("SELECT a, sum(b) FROM r1 GROUP BY a")
        assert query.has_aggregates

    def test_aggregate_not_allowed_in_where(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT a FROM r1 WHERE sum(a) > 5")

    def test_udf_resolution(self, two_table_db):
        two_table_db.register_udf("double_it", lambda x: 2 * x)
        query = two_table_db.bind_sql("SELECT a FROM r1 WHERE double_it(a) > 10")
        assert query.predicates[0].contains_function()

    def test_unknown_udf(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT a FROM r1 WHERE nope(a) > 10")

    def test_constant_folding(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a FROM r1 WHERE a < 2 + 3")
        assert isinstance(query.predicates[0].right, ConstExpr)
        assert query.predicates[0].right.value == 5

    def test_order_by_alias_and_column(self, two_table_db):
        query = two_table_db.bind_sql(
            "SELECT a AS alpha, sum(b) AS total FROM r1 GROUP BY a ORDER BY total DESC, alpha"
        )
        assert query.order_by[0].name == "total"
        assert not query.order_by[0].ascending
        assert query.order_by[1].name == "alpha"

    def test_order_by_unknown_key(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.bind_sql("SELECT a FROM r1 ORDER BY b")

    def test_select_star_expansion(self, two_table_db):
        query = two_table_db.bind_sql("SELECT * FROM r1")
        assert len(query.output) == 3

    def test_output_name_uniquing(self, two_table_db):
        query = two_table_db.bind_sql("SELECT a, a FROM r1")
        names = [item.name for item in query.output]
        assert len(set(names)) == 2

    def test_join_count(self, two_table_db):
        query = two_table_db.bind_sql("SELECT r1.a FROM r1, r2 WHERE r1.id = r2.r1_id")
        assert query.join_count == 1
        assert query.selection_predicates("r1") == []


class TestDeparser:
    ROUND_TRIP_QUERIES = [
        "SELECT r1.a FROM r1",
        "SELECT r1.a, r2.c FROM r1, r2 WHERE r1.id = r2.r1_id",
        "SELECT a, sum(b) AS total FROM r1 GROUP BY a ORDER BY total DESC LIMIT 3",
        "SELECT a FROM r1 WHERE a BETWEEN 2 AND 8 AND b <> 3",
        "SELECT a FROM r1 WHERE a = 1 OR a = 2",
        "SELECT a FROM r1 WHERE NOT (a = 1 OR b = 2)",
        "SELECT a FROM r1 WHERE a IN (1, 2, 3)",
        "SELECT avg(a * 2 + 1) one FROM r1",
        "SELECT count(*) n FROM r1 WHERE b > 10",
    ]

    @pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
    def test_round_trip_is_stable(self, two_table_db, sql):
        """bind -> deparse -> bind -> deparse must reach a fixed point."""
        query1 = two_table_db.bind_sql(sql)
        text1 = deparse(query1)
        query2 = two_table_db.bind_sql(text1)
        text2 = deparse(query2)
        assert text1 == text2

    @pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
    def test_round_trip_preserves_results(self, two_table_db, sql):
        """Executing the deparsed query must give the original's rows."""
        from repro.core.modes import DynamicMode

        original = two_table_db.execute(sql, mode=DynamicMode.OFF)
        rebound = deparse(two_table_db.bind_sql(sql))
        again = two_table_db.execute(rebound, mode=DynamicMode.OFF)
        assert sorted(map(str, original.rows)) == sorted(map(str, again.rows))

    def test_string_literal_escaping(self, two_table_db):
        expr = ConstExpr("it's")
        assert expr.sql() == "'it''s'"
