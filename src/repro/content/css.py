"""CSS1 subset: parsing, serialization and image replacement.

The paper's CSS experiment ("Replacing Images with HTML and CSS")
estimates how many of the Microscape page's 40 static GIFs can be
replaced by markup once Cascading Style Sheets, level 1 (Lie & Bos,
W3C Recommendation, Dec 1996) deploy.  Figure 1 shows the canonical
example: a 682-byte "solutions" banner GIF versus ~150 bytes of
HTML+CSS.

This module implements

* a small CSS1 object model (:class:`Declaration`, :class:`Rule`,
  :class:`Stylesheet`) with a parser and byte-exact serializer — enough
  of CSS1 for the replacement idioms the paper uses (fonts, colors,
  backgrounds, padding, borders, list styles),
* an :class:`ImageRole` taxonomy for decorative web images, and
* the replacement generator: given an image's role and parameters, the
  HTML+CSS equivalent and its byte cost.

Replaceability assumptions (the paper's own bullet list is truncated in
the surviving text; these are documented in DESIGN.md): text banners,
bullets, spacers and horizontal rules are replaceable; simple symbol
icons are replaceable by Unicode characters styled with CSS (the paper
explicitly mentions "symbols ... that appear in fonts for the Unicode
character set"); logos, photographs and animations are not replaceable.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Sequence

__all__ = ["Declaration", "Rule", "Stylesheet", "parse_css", "CssError",
           "ImageRole", "Replacement", "replacement_for", "REPLACEABLE_ROLES",
           "banner_replacement"]


class CssError(ValueError):
    """Raised for malformed CSS."""


@dataclasses.dataclass(frozen=True)
class Declaration:
    """One ``property: value`` pair."""

    prop: str
    value: str

    def serialize(self) -> str:
        return f"{self.prop}: {self.value}"


@dataclasses.dataclass
class Rule:
    """A selector list with its declaration block."""

    selectors: List[str]
    declarations: List[Declaration]

    def serialize(self, compact: bool = False) -> str:
        """Render the rule; ``compact`` skips pretty-printing whitespace."""
        selector_text = ", ".join(self.selectors)
        if compact:
            body = ";".join(f"{d.prop}:{d.value}"
                            for d in self.declarations)
            return f"{selector_text}{{{body}}}"
        body = "".join(f"  {d.serialize()};\n" for d in self.declarations)
        return f"{selector_text} {{\n{body}}}"

    def get(self, prop: str) -> Optional[str]:
        """Value of the last declaration of ``prop`` (cascade order)."""
        value = None
        for declaration in self.declarations:
            if declaration.prop.lower() == prop.lower():
                value = declaration.value
        return value


@dataclasses.dataclass
class Stylesheet:
    """An ordered list of rules."""

    rules: List[Rule]

    def serialize(self, compact: bool = False) -> str:
        joiner = "" if compact else "\n"
        return joiner.join(rule.serialize(compact) for rule in self.rules)

    @property
    def byte_size(self) -> int:
        """Size of the compact serialization in bytes."""
        return len(self.serialize(compact=True).encode("latin-1"))


def _strip_comments(text: str) -> str:
    out = []
    pos = 0
    while True:
        start = text.find("/*", pos)
        if start == -1:
            out.append(text[pos:])
            return "".join(out)
        out.append(text[pos:start])
        end = text.find("*/", start + 2)
        if end == -1:
            raise CssError("unterminated comment")
        pos = end + 2


def parse_css(text: str) -> Stylesheet:
    """Parse a CSS1 stylesheet (rules and declarations; no @-rules)."""
    text = _strip_comments(text)
    rules: List[Rule] = []
    pos = 0
    while True:
        brace = text.find("{", pos)
        if brace == -1:
            if text[pos:].strip():
                raise CssError(f"trailing junk: {text[pos:].strip()!r}")
            return Stylesheet(rules)
        selector_text = text[pos:brace].strip()
        if not selector_text:
            raise CssError("rule without selector")
        end = text.find("}", brace)
        if end == -1:
            raise CssError("unterminated declaration block")
        declarations = []
        for piece in text[brace + 1:end].split(";"):
            piece = piece.strip()
            if not piece:
                continue
            prop, sep, value = piece.partition(":")
            if not sep:
                raise CssError(f"malformed declaration: {piece!r}")
            declarations.append(Declaration(prop.strip(),
                                            " ".join(value.split())))
        selectors = [s.strip() for s in selector_text.split(",")]
        rules.append(Rule(selectors, declarations))
        pos = end + 1


# ----------------------------------------------------------------------
# Image replacement
# ----------------------------------------------------------------------
class ImageRole(enum.Enum):
    """What a decorative web image is *for* (decides replaceability)."""

    TEXT_BANNER = "text-banner"     # words rendered in a font/color
    BULLET = "bullet"               # list bullet / arrow glyph
    SPACER = "spacer"               # invisible layout spacer
    RULE = "rule"                   # horizontal divider
    SYMBOL_ICON = "symbol-icon"     # simple glyph replaceable by Unicode
    LOGO = "logo"                   # brand artwork
    PHOTO = "photo"                 # photographic content
    ANIMATION = "animation"         # animated GIF


#: Roles that HTML+CSS can replace (see module docstring).
REPLACEABLE_ROLES = frozenset({
    ImageRole.TEXT_BANNER, ImageRole.BULLET, ImageRole.SPACER,
    ImageRole.RULE, ImageRole.SYMBOL_ICON,
})


@dataclasses.dataclass(frozen=True)
class Replacement:
    """The HTML+CSS equivalent of one decorative image."""

    html: str
    css: Rule

    @property
    def byte_size(self) -> int:
        """Combined size of the snippet and its rule, as the paper counts."""
        return (len(self.html.encode("latin-1"))
                + len(self.css.serialize(compact=True).encode("latin-1")))


def banner_replacement(text: str = "solutions",
                       class_name: str = "banner",
                       color: str = "white",
                       background: str = "#FC0",
                       font: str = "bold oblique 20px sans-serif"
                       ) -> Replacement:
    """The paper's Figure 1 replacement, byte for byte in spirit.

    The paper's snippet (a ``P.banner`` rule plus ``<P CLASS=banner>``)
    "only takes up around 150 bytes" against the 682-byte GIF.
    """
    rule = Rule([f"p.{class_name}"], [
        Declaration("color", color),
        Declaration("background", background),
        Declaration("font", font),
        Declaration("padding", "0.2em 10em 0.2em 1em"),
    ])
    html = f'<p class={class_name}>{text}</p>'
    return Replacement(html, rule)


def replacement_for(role: ImageRole, *, text: str = "",
                    color: str = "#C00") -> Optional[Replacement]:
    """HTML+CSS replacement for an image of ``role``, or None.

    Returns None for roles CSS cannot replace (logos, photos,
    animations) — those images stay on the page.
    """
    if role == ImageRole.TEXT_BANNER:
        return banner_replacement(text or "solutions")
    if role == ImageRole.BULLET:
        rule = Rule(["ul.c"], [
            Declaration("list-style-type", "disc"),
            Declaration("color", color),
        ])
        return Replacement('<ul class=c>', rule)
    if role == ImageRole.SPACER:
        rule = Rule([".sp"], [Declaration("padding-left", "1em")])
        return Replacement('<span class=sp></span>', rule)
    if role == ImageRole.RULE:
        rule = Rule(["hr.r"], [
            Declaration("border", f"1px solid {color}"),
            Declaration("width", "100%"),
        ])
        return Replacement('<hr class=r>', rule)
    if role == ImageRole.SYMBOL_ICON:
        rule = Rule([".sym"], [
            Declaration("font", "14px sans-serif"),
            Declaration("color", color),
        ])
        return Replacement(f'<span class=sym>{text or "&#8226;"}</span>',
                           rule)
    return None


def shared_rule_bytes(replacements: Sequence[Replacement]) -> int:
    """Total CSS bytes when identical rules are shared across uses.

    "Modularity in style sheets means that the same style sheet may
    apply to many documents" — and the same rule to many elements; each
    distinct rule is paid for once.
    """
    seen = {}
    for replacement in replacements:
        key = replacement.css.serialize(compact=True)
        seen[key] = len(key.encode("latin-1"))
    return sum(seen.values())


__all__.append("shared_rule_bytes")
