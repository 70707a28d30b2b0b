from __future__ import annotations

from xml.sax.saxutils import escape as sax_escape

from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent import svg

LABELS = ["a & b", "<tag>", "x > y", 'say "hi"', "it's", "&amp;", "plain", "ü & ☃"]


def charts():
    """One chart of each kind, every text element drawn from :data:`LABELS`."""
    return [
        svg.bar_chart(LABELS, [float(i) for i in range(len(LABELS))], 'bars "&" <more>'),
        svg.heatmap_grid(LABELS[:3], LABELS[3:6], [[0.5, None, 1.0]] * 3, "grid <&>",
                         fmt="{:g} & <"),
        svg.line_chart([(label, [(0.0, 0.0), (1.0, 1.0)]) for label in LABELS],
                       "lines ' \"", x_label="x < 1", y_label="y > 0 & y's"),
        svg.token_heatmap(LABELS, [0.1 * i for i in range(len(LABELS))],
                          [0.0] * len(LABELS), "tokens & 'quotes'"),
    ]


class TestEscapeMatchesSax:
    def test_charts_match_the_sax_escape_byte_for_byte(self, monkeypatch):
        ours = charts()
        monkeypatch.setattr(svg, "_escape", sax_escape)
        assert charts() == ours
        assert "a &amp; b" in ours[0] and "&lt;tag&gt;" in ours[0]
        assert 'say "hi"' in ours[0] and "it's" in ours[0]

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("&<>\"'a ;#xü☃"), max_size=20) | st.text())
    def test_escape_equals_sax_escape(self, text):
        assert svg._escape(text) == sax_escape(text)

