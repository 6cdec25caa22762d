"""Tests for the GIF→PNG/MNG and CSS-replacement analyses."""

import pytest

from repro.content import (ImageRole, apply_all_transforms,
                           build_microscape_site, convert_site_to_png,
                           css_replacement_analysis, decode_png,
                           find_image_urls)


@pytest.fixture(scope="module")
def site():
    return build_microscape_site()


@pytest.fixture(scope="module")
def png_report(site):
    return convert_site_to_png(site)


@pytest.fixture(scope="module")
def css_report(site):
    return css_replacement_analysis(site)


# ----------------------------------------------------------------------
# GIF -> PNG / MNG
# ----------------------------------------------------------------------
def test_png_conversion_saves_about_ten_percent(png_report):
    """Paper: 103,299 -> 92,096 bytes (10.8% saved) for static GIFs."""
    saving = png_report.static_saved / png_report.static_gif_total
    assert 0.04 <= saving <= 0.18


def test_mng_conversion_saves_about_a_third(png_report):
    """Paper: 24,988 -> 16,329 bytes (34.7% saved) for the animations."""
    saving = png_report.animation_saved / png_report.animation_gif_total
    assert 0.25 <= saving <= 0.50


def test_sub_200_byte_images_grow(site, png_report):
    """Paper: 'PNG does not perform as well on the very low bit depth
    images in the sub-200 byte category'."""
    for record in png_report.static:
        if record.gif_bytes < 200:
            assert record.converted_bytes > record.gif_bytes


def test_large_images_shrink(png_report):
    big = [r for r in png_report.static if r.gif_bytes > 3000]
    assert big
    assert all(r.saved > 0 for r in big)


def test_gamma_chunk_accounting(site):
    """Dropping gAMA saves exactly 16 bytes per static image."""
    with_gamma = convert_site_to_png(site, include_gamma=True)
    without = convert_site_to_png(site, include_gamma=False)
    delta = with_gamma.static_png_total - without.static_png_total
    assert delta == 16 * len(with_gamma.static)


def test_conversion_covers_all_images(site, png_report):
    assert len(png_report.static) == 40
    assert len(png_report.animations) == 2


# ----------------------------------------------------------------------
# CSS replacement
# ----------------------------------------------------------------------
def test_replaceable_images_are_replaced(css_report):
    """Banners, bullets, spacers, rules and symbol icons go away."""
    replaced_roles = {r.role for r in css_report.replaced}
    assert ImageRole.TEXT_BANNER in replaced_roles
    assert ImageRole.SPACER in replaced_roles
    kept_roles = {o.role for o in css_report.kept}
    assert ImageRole.PHOTO in kept_roles
    assert ImageRole.ANIMATION in kept_roles


def test_requests_saved_is_substantial(css_report):
    """Most of the 42 images are small decoration: >= half replaceable."""
    assert 20 <= css_report.requests_saved <= 35


def test_css_replacement_saves_bytes(css_report):
    assert css_report.net_bytes_saved > 0
    # Markup added is tiny compared to the images removed.
    assert css_report.markup_bytes_added < (
        css_report.image_bytes_removed / 5)


def test_each_replacement_smaller_than_its_image_group(css_report):
    """Replacements beat their GIFs except bottom-end spacers/bullets,
    whose shared CSS rule amortizes across many uses."""
    total_replacement = css_report.markup_bytes_added
    assert total_replacement < css_report.image_bytes_removed


# ----------------------------------------------------------------------
# Combined transform
# ----------------------------------------------------------------------
def test_apply_all_transforms_rewrites_page(site):
    page = apply_all_transforms(site)
    html = page.html.decode("latin-1")
    assert "<style>" in html
    remaining = find_image_urls(html)
    # Replaced images are gone; survivors now point at .png/.mng.
    assert len(remaining) == len(page.objects)
    assert all(url.endswith((".png", ".mng")) for url in remaining)
    for url in remaining:
        assert url in page.objects


def test_transform_report_is_the_standalone_conversion(site, png_report):
    """One encoding pass serves both: the page's tally is the batch's."""
    assert apply_all_transforms(site).png_report == png_report


def test_transformed_payload_smaller(site):
    page = apply_all_transforms(site)
    before = site.html.size + site.total_image_bytes
    assert page.total_payload < before
    assert page.request_count < 43


def test_transformed_pngs_decode(site):
    page = apply_all_transforms(site)
    for url, body in page.objects.items():
        if url.endswith(".png"):
            assert decode_png(body).width > 0
