"""Tests for the GIF→PNG/MNG and CSS-replacement analyses."""

import pytest

from repro.content import (ImageRole, apply_all_transforms,
                           build_microscape_site, convert_site_to_png,
                           css_replacement_analysis, find_image_urls)

from .decoder_oracle import decode_png


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


# ----------------------------------------------------------------------
# Conversions go through the artifact store
# ----------------------------------------------------------------------
@pytest.fixture
def counted(monkeypatch):
    """Count the real encoder calls, by codec."""
    from repro.content import transform
    calls = {"encode_png": 0, "encode_mng": 0}

    def counting(name):
        encode = getattr(transform, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return encode(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(transform, name, counting(name))
    return calls


def _use_store(monkeypatch, tmp_path, **options):
    """A cleared default store whose blobs land under ``tmp_path``."""
    from repro.content import artifacts
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(artifacts, "_DEFAULT_STORE",
                        artifacts.ArtifactStore(**options))


def test_one_report_encodes_each_distinct_image_once(site, counted,
                                                     monkeypatch, tmp_path):
    from repro.analysis import reproduce_content_experiments
    _use_store(monkeypatch, tmp_path)
    first = reproduce_content_experiments()
    # 40 static images, 39 distinct (the two rules have equal pixels:
    # the key is what the encoder reads, never the URL), 2 animations.
    assert counted == {"encode_png": 39, "encode_mng": 2}
    assert reproduce_content_experiments() == first
    assert convert_site_to_png(site) == apply_all_transforms(site).png_report
    assert counted == {"encode_png": 39, "encode_mng": 2}
    # The options are part of the key.
    convert_site_to_png(site, include_gamma=False)
    assert counted == {"encode_png": 78, "encode_mng": 2}


def test_a_disabled_store_encodes_every_report(site, counted, monkeypatch,
                                               tmp_path):
    from repro.analysis import reproduce_content_experiments
    _use_store(monkeypatch, tmp_path, enabled=False)
    first = reproduce_content_experiments()
    assert counted == {"encode_png": 40, "encode_mng": 2}
    assert reproduce_content_experiments() == first
    assert counted == {"encode_png": 80, "encode_mng": 4}


def test_memoized_conversions_are_the_encoders_bytes(site, monkeypatch,
                                                     tmp_path):
    from repro.content import encode_mng, encode_png
    _use_store(monkeypatch, tmp_path)
    for _ in range(2):                          # cold, then from the store
        page = apply_all_transforms(site)
        for obj in site.image_objects:
            if obj.url.replace(".gif", ".png") in page.objects:
                assert page.objects[obj.url.replace(".gif", ".png")] == \
                    encode_png(obj.image)
            elif obj.url.replace(".gif", ".mng") in page.objects:
                assert page.objects[obj.url.replace(".gif", ".mng")] == \
                    encode_mng(obj.frames)


def test_encode_once_keys_on_codec_pixels_and_options(monkeypatch,
                                                      tmp_path):
    from repro.content import encode_gif, encode_png, spacer
    from repro.content.transform import encode_once
    _use_store(monkeypatch, tmp_path)
    image = spacer(8, 8)
    progressive = encode_once("png", encode_png, image, interlace=True)
    assert progressive == encode_png(image, interlace=True)
    assert progressive != encode_once("png", encode_png, image)
    assert encode_once("gif", encode_gif, image, interlace=True) == \
        encode_gif(image, interlace=True)
    # Same pixels, same options, another object: served from the store.
    assert encode_once("png", lambda *a, **k: b"never called",
                       spacer(8, 8), interlace=True) == progressive
