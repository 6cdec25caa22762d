"""Unit tests for the CSS1 subset and image replacement."""

import pytest

from repro.content import (CssError, Declaration, ImageRole,
                           REPLACEABLE_ROLES, Rule, Stylesheet,
                           banner_replacement, parse_css, replacement_for,
                           shared_rule_bytes)


def test_parse_simple_rule():
    sheet = parse_css("p.banner { color: white; background: #FC0 }")
    assert len(sheet.rules) == 1
    rule = sheet.rules[0]
    assert rule.selectors == ["p.banner"]
    assert rule.get("color") == "white"
    assert rule.get("background") == "#FC0"


def test_parse_multiple_selectors_and_rules():
    sheet = parse_css("h1, h2 { font-weight: bold }\n em { color: red }")
    assert sheet.rules[0].selectors == ["h1", "h2"]
    assert len(sheet.rules) == 2
    h2 = [rule for rule in sheet.rules if "h2" in rule.selectors]
    assert h2[0].get("font-weight") == "bold"


def test_parse_strips_comments():
    sheet = parse_css("/* note */ p { /* inner */ color: blue }")
    assert sheet.rules[0].get("color") == "blue"


def test_parse_cascade_order():
    sheet = parse_css("p { color: red; color: green }")
    assert sheet.rules[0].get("color") == "green"


def test_parse_errors():
    with pytest.raises(CssError):
        parse_css("p { color red }")        # missing colon
    with pytest.raises(CssError):
        parse_css("p { color: red ")        # unterminated block
    with pytest.raises(CssError):
        parse_css("{ color: red }")         # no selector
    with pytest.raises(CssError):
        parse_css("/* unterminated")
    with pytest.raises(CssError):
        parse_css("p { a: b } junk")


def test_serialize_roundtrip():
    source = "p.banner{color:white;font:bold 20px sans-serif}"
    sheet = parse_css(source)
    assert sheet.serialize(compact=True) == source
    # Pretty form reparses to the same object model.
    assert parse_css(sheet.serialize()).serialize(compact=True) == source


def test_stylesheet_byte_size():
    sheet = Stylesheet([Rule(["p"], [Declaration("color", "red")])])
    assert sheet.byte_size == len("p{color:red}")


def test_figure1_banner_replacement_size():
    """Figure 1: 682-byte GIF vs ~150 bytes of HTML+CSS (>4x smaller)."""
    replacement = banner_replacement("solutions")
    assert replacement.byte_size <= 180
    assert 682 / replacement.byte_size > 4.0
    assert "solutions" in replacement.html
    assert replacement.css.get("font") == "bold oblique 20px sans-serif"


def test_replaceable_roles_have_replacements():
    for role in REPLACEABLE_ROLES:
        replacement = replacement_for(role, text="go")
        assert replacement is not None
        assert replacement.byte_size < 250


def test_non_replaceable_roles_return_none():
    for role in (ImageRole.LOGO, ImageRole.PHOTO, ImageRole.ANIMATION):
        assert replacement_for(role) is None


def test_shared_rule_bytes_deduplicates():
    a = replacement_for(ImageRole.BULLET)
    b = replacement_for(ImageRole.BULLET)
    c = replacement_for(ImageRole.SPACER)
    shared = shared_rule_bytes([a, b, c])
    individual = (len(a.css.serialize(compact=True))
                  + len(c.css.serialize(compact=True)))
    assert shared == individual
