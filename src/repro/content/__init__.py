"""Web content: the Microscape site, image codecs, HTML and CSS1.

Everything the paper's "Changing Web Content" experiments need:

* :mod:`~repro.content.microscape` — the synthetic 42 KB page with 42
  inlined GIFs matching the paper's size histogram,
* :mod:`~repro.content.gif` / :mod:`~repro.content.png` /
  :mod:`~repro.content.mng` — real encoders (LZW, deflate+filters,
  delta frames),
* :mod:`~repro.content.css` — a CSS1 subset and the image→HTML+CSS
  replacement generator,
* :mod:`~repro.content.transform` — the batch conversion and
  replacement analyses behind the paper's content tables,
* :mod:`~repro.content.artifacts` — the content-addressed artifact
  store memoizing the expensive encodes across processes and runs.
"""

from .artifacts import (ENCODER_VERSION, ArtifactStats, ArtifactStore,
                        artifact_key)
from .css import (CssError, Declaration, ImageRole, REPLACEABLE_ROLES,
                  Replacement, Rule, Stylesheet, banner_replacement,
                  parse_css, replacement_for, shared_rule_bytes)
from .gif import GifError, encode_animated_gif, encode_gif
from .html import (change_tag_case, distinct_image_urls, filler_paragraphs,
                   find_image_urls, nav_table)
from .htmlparse import HtmlTokenizer, Token, tokenize
from .progressive import (bytes_for_coverage, gif_area_coverage,
                          png_area_coverage)
from .images import (IndexedImage, animation_frames, banner, bullet, icon,
                     photo_like, spacer)
from .microscape import (HTML_URL, MicroscapeSite, SiteObject,
                         build_microscape_site)
from .mng import encode_mng
from .png import encode_png
from .transform import (ConversionRecord, CssReplacementRecord,
                        CssReplacementReport, PngConversionReport,
                        TransformedPage, apply_all_transforms,
                        convert_site_to_png, css_replacement_analysis,
                        encode_once)

__all__ = [
    "ENCODER_VERSION", "ArtifactStats", "ArtifactStore", "artifact_key",
    "CssError", "Declaration", "ImageRole", "REPLACEABLE_ROLES",
    "Replacement", "Rule", "Stylesheet", "banner_replacement", "parse_css",
    "replacement_for", "shared_rule_bytes",
    "GifError", "encode_animated_gif", "encode_gif",
    "change_tag_case", "distinct_image_urls", "filler_paragraphs",
    "find_image_urls", "nav_table",
    "HtmlTokenizer", "Token", "tokenize",
    "bytes_for_coverage", "gif_area_coverage", "png_area_coverage",
    "IndexedImage", "animation_frames", "banner", "bullet", "icon",
    "photo_like", "spacer",
    "HTML_URL", "MicroscapeSite", "SiteObject", "build_microscape_site",
    "encode_mng", "encode_png",
    "ConversionRecord", "CssReplacementRecord", "CssReplacementReport",
    "PngConversionReport", "TransformedPage", "apply_all_transforms",
    "convert_site_to_png", "css_replacement_analysis", "encode_once",
]
