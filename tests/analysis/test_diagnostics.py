"""Diagnostic values: wire form, rendering, ordering, the code registry."""

from repro.analysis import (
    CODES,
    Diagnostic,
    Severity,
    errors_only,
    has_errors,
    promote_warnings,
    sort_diagnostics,
    to_wire,
)
from repro.analysis.diagnostics import Span


class TestCodeRegistry:
    def test_every_code_has_a_fixed_severity_and_title(self):
        for code, (severity, title) in CODES.items():
            assert isinstance(severity, Severity)
            assert title
        assert {"GQL000", "GQL001", "GQL009", "GQL012"} <= set(CODES)

    def test_severity_ranks_order(self):
        assert (Severity.ERROR.rank > Severity.WARNING.rank
                > Severity.HINT.rank)


class TestWireForm:
    def test_round_trip_with_span(self):
        d = Diagnostic("GQL001", Severity.ERROR, "unbound 'Q'", Span(3, 7))
        data = d.to_dict()
        assert data == {"code": "GQL001", "severity": "error",
                        "message": "unbound 'Q'", "line": 3, "column": 7}
        assert Diagnostic.from_dict(data) == d

    def test_unknown_span_omitted_from_wire(self):
        d = Diagnostic("GQL012", Severity.ERROR, "refused")
        assert "line" not in d.to_dict()
        assert Diagnostic.from_dict(d.to_dict()).span is None

    def test_to_wire_is_a_list_of_dicts(self):
        wire = to_wire([Diagnostic("GQL008", Severity.HINT, "redundant")])
        assert wire == [{"code": "GQL008", "severity": "hint",
                         "message": "redundant"}]


class TestRender:
    def test_with_position(self):
        d = Diagnostic("GQL004", Severity.WARNING, "typo?", Span(2, 5))
        assert d.render("q.gql") == "q.gql:2:5: warning GQL004 typo?"

    def test_without_position(self):
        d = Diagnostic("GQL012", Severity.ERROR, "refused")
        assert d.render() == "<query>: error GQL012 refused"


class TestFilters:
    def test_errors_only_and_has_errors(self):
        diags = [
            Diagnostic("GQL008", Severity.HINT, "h"),
            Diagnostic("GQL004", Severity.WARNING, "w"),
            Diagnostic("GQL001", Severity.ERROR, "e"),
        ]
        assert has_errors(diags)
        assert [d.code for d in errors_only(diags)] == ["GQL001"]
        assert not has_errors(diags[:2])

    def test_promote_warnings_leaves_hints_alone(self):
        diags = [
            Diagnostic("GQL008", Severity.HINT, "h"),
            Diagnostic("GQL004", Severity.WARNING, "w"),
        ]
        promoted = promote_warnings(diags)
        assert promoted[0].severity is Severity.HINT
        assert promoted[1].severity is Severity.ERROR
        assert promoted[1].code == "GQL004"

    def test_sort_is_source_order_with_unknown_spans_last(self):
        a = Diagnostic("GQL004", Severity.WARNING, "w", Span(5, 1))
        b = Diagnostic("GQL001", Severity.ERROR, "e", Span(2, 3))
        c = Diagnostic("GQL012", Severity.ERROR, "no span")
        assert sort_diagnostics([a, c, b]) == [b, a, c]
