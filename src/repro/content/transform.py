"""Content transformations: GIF→PNG/MNG conversion and CSS replacement.

These implement the paper's "Impact of Changing Web Content" section:

* **Converting images from GIF to PNG and MNG** — run the real codecs
  over every Microscape image and compare encoded sizes.  The paper
  measured 103,299 → 92,096 bytes for the 40 static GIFs (saving
  11,203) and 24,988 → 16,329 for the two animations (saving 8,659),
  noting that sub-200-byte images *grow* because of PNG's fixed costs.
* **Replacing images with HTML and CSS** — for every image whose role
  CSS1 can replace (banners, bullets, spacers, rules, Unicode-symbol
  icons), swap the ``<img>`` for its HTML+CSS equivalent, sharing
  identical rules, and count the bytes and HTTP requests saved.
* **The combined page** — apply both plus deflate, the paper's "back of
  the envelope calculation" that the page "might be downloaded over a
  modem in approximately 60 % of the time of HTTP/1.0 browsers".
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from typing import Callable, Dict, Iterable, Iterator, List, Tuple, Union

from . import artifacts
from .css import (ImageRole, REPLACEABLE_ROLES, Replacement,
                  replacement_for, shared_rule_bytes)
from .images import IndexedImage
from .microscape import MicroscapeSite, SiteObject
from .mng import encode_mng
from .png import encode_png

__all__ = ["ConversionRecord", "PngConversionReport", "convert_site_to_png",
           "CssReplacementRecord", "CssReplacementReport",
           "css_replacement_analysis", "apply_all_transforms",
           "TransformedPage", "encode_once"]


# ----------------------------------------------------------------------
# GIF → PNG / MNG
# ----------------------------------------------------------------------
def encode_once(kind: str, encode: Callable[..., bytes],
                subject: Union[IndexedImage, List[IndexedImage]],
                **options: bool) -> bytes:
    """``encode(subject, **options)``, through the artifact store.

    ``subject`` is one image or an animation's frames.  The key is what
    the encoder reads — ``kind`` (the codec), every field of every
    image, the options — never a URL; a disabled store encodes anew.
    """
    frames = [subject] if isinstance(subject, IndexedImage) else subject
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(repr((frame.width, frame.height, frame.palette,
                            frame.transparent)).encode("ascii"))
        digest.update(frame.pixels)
    return artifacts.get_store().memoize(
        f"transform.{kind}", {"images": digest.hexdigest(), **options}, 0,
        lambda: encode(subject, **options))


@dataclasses.dataclass(frozen=True)
class ConversionRecord:
    """One image's before/after sizes."""

    url: str
    role: ImageRole
    gif_bytes: int
    converted_bytes: int

    @property
    def saved(self) -> int:
        """Positive when the conversion shrank the image."""
        return self.gif_bytes - self.converted_bytes


@dataclasses.dataclass
class PngConversionReport:
    """Aggregate results of the batch GIF→PNG / GIF→MNG conversion."""

    static: List[ConversionRecord]
    animations: List[ConversionRecord]

    @property
    def static_gif_total(self) -> int:
        return sum(r.gif_bytes for r in self.static)

    @property
    def static_png_total(self) -> int:
        return sum(r.converted_bytes for r in self.static)

    @property
    def static_saved(self) -> int:
        return self.static_gif_total - self.static_png_total

    @property
    def animation_gif_total(self) -> int:
        return sum(r.gif_bytes for r in self.animations)

    @property
    def animation_mng_total(self) -> int:
        return sum(r.converted_bytes for r in self.animations)

    @property
    def animation_saved(self) -> int:
        return self.animation_gif_total - self.animation_mng_total

    def grew(self) -> List[ConversionRecord]:
        """Images the conversion made larger (tiny ones, per the paper)."""
        return [r for r in self.static if r.saved < 0]


def _conversions(site: MicroscapeSite, *, include_gamma: bool = True
                 ) -> Iterator[Tuple[ConversionRecord, bytes]]:
    """Encode each site image once: its size record and the new body."""
    for obj in site.image_objects:
        if obj.role == ImageRole.ANIMATION:
            assert obj.frames is not None
            body = encode_once("mng", encode_mng, obj.frames)
        else:
            assert obj.image is not None
            body = encode_once("png", encode_png, obj.image,
                               include_gamma=include_gamma)
        yield (ConversionRecord(obj.url, obj.role, len(obj.body),
                                len(body)), body)


def _report(conversions: Iterable[Tuple[ConversionRecord, bytes]]
            ) -> PngConversionReport:
    """Tally conversion records into the static and animated lists."""
    report = PngConversionReport([], [])
    for record, _body in conversions:
        (report.animations if record.role == ImageRole.ANIMATION
         else report.static).append(record)
    return report


def convert_site_to_png(site: MicroscapeSite, *,
                        include_gamma: bool = True) -> PngConversionReport:
    """Convert every site image with the real codecs and tally sizes.

    ``include_gamma`` keeps the 16-byte gAMA chunk the paper's
    conversion added; pass False to measure the conversion without it.
    """
    return _report(_conversions(site, include_gamma=include_gamma))


# ----------------------------------------------------------------------
# CSS replacement
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CssReplacementRecord:
    """One image replaced by HTML+CSS."""

    url: str
    role: ImageRole
    gif_bytes: int
    replacement: Replacement


@dataclasses.dataclass
class CssReplacementReport:
    """Aggregate results of the image→CSS replacement pass."""

    replaced: List[CssReplacementRecord]
    kept: List[SiteObject]

    @property
    def requests_saved(self) -> int:
        """Each replaced image is one HTTP request that never happens."""
        return len(self.replaced)

    @property
    def image_bytes_removed(self) -> int:
        return sum(r.gif_bytes for r in self.replaced)

    @property
    def markup_bytes_added(self) -> int:
        """HTML snippets plus *shared* CSS rules (rules are deduplicated)."""
        html_bytes = sum(len(r.replacement.html.encode("latin-1"))
                         for r in self.replaced)
        return html_bytes + shared_rule_bytes(
            [r.replacement for r in self.replaced])

    @property
    def net_bytes_saved(self) -> int:
        return self.image_bytes_removed - self.markup_bytes_added


def css_replacement_analysis(site: MicroscapeSite) -> CssReplacementReport:
    """Classify each image and replace the replaceable ones."""
    replaced = []
    kept = []
    for obj in site.image_objects:
        assert obj.role is not None
        replacement = None
        if obj.role in REPLACEABLE_ROLES:
            replacement = replacement_for(obj.role, text=obj.text)
        if replacement is None:
            kept.append(obj)
        else:
            replaced.append(CssReplacementRecord(
                obj.url, obj.role, len(obj.body), replacement))
    return CssReplacementReport(replaced, kept)


# ----------------------------------------------------------------------
# Everything at once
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TransformedPage:
    """The Microscape page after CSS replacement and PNG conversion."""

    html: bytes
    objects: Dict[str, bytes]
    css_report: CssReplacementReport
    png_report: PngConversionReport

    @property
    def total_payload(self) -> int:
        return len(self.html) + sum(len(b) for b in self.objects.values())

    @property
    def request_count(self) -> int:
        """HTML plus each remaining embedded object."""
        return 1 + len(self.objects)


def apply_all_transforms(site: MicroscapeSite) -> TransformedPage:
    """Rewrite the page: CSS replaces what it can, PNG/MNG carry the rest.

    Returns the new page (HTML with an embedded ``<style>`` block and
    rewritten ``<img>`` references) and the surviving image objects —
    the content half of the paper's "all techniques applied" estimate.
    """
    css_report = css_replacement_analysis(site)
    conversions = list(_conversions(site))
    converted: Dict[str, Tuple[str, bytes]] = {}
    for record, body in conversions:
        converted[record.url] = (record.url.replace(".gif", ".png")
                                 if record.role != ImageRole.ANIMATION
                                 else record.url.replace(".gif", ".mng"),
                                 body)
    replaced_by_url = {r.url: r for r in css_report.replaced}
    html = site.html.body.decode("latin-1")

    def rewrite(match: "re.Match[str]") -> str:
        tag = match.group(0)
        url_match = re.search(r'src="([^"]+)"', tag)
        if not url_match:
            return tag
        url = url_match.group(1)
        if url in replaced_by_url:
            return replaced_by_url[url].replacement.html
        if url in converted:
            return tag.replace(url, converted[url][0])
        return tag

    html = re.sub(r"<img\b[^>]*>", rewrite, html)
    style_rules = shared_style_block(css_report)
    html = html.replace("</head>", style_rules + "\n</head>", 1)
    objects = {}
    for obj in site.image_objects:
        if obj.url in replaced_by_url:
            continue
        new_url, body = converted[obj.url]
        objects[new_url] = body
    return TransformedPage(html.encode("latin-1"), objects, css_report,
                           _report(conversions))


def shared_style_block(report: CssReplacementReport) -> str:
    """One ``<style>`` element holding each distinct rule once."""
    seen = {}
    for record in report.replaced:
        rule_text = record.replacement.css.serialize(compact=True)
        seen[rule_text] = None
    return "<style>" + "".join(seen) + "</style>"
