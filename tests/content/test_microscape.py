"""Tests for the synthetic Microscape site against the paper's numbers."""

import dataclasses
import zlib
from unittest import mock

import pytest

from repro.content import microscape
from repro.content import (HTML_URL, ImageRole, build_microscape_site,
                           find_image_urls)

from .decoder_oracle import decode_animated_gif, decode_gif


@pytest.fixture(scope="module")
def site():
    return build_microscape_site()


@pytest.fixture(scope="module")
def static_images(site):
    return [o for o in site.image_objects if o.role != ImageRole.ANIMATION]


def test_site_is_cached_and_deterministic(site):
    assert build_microscape_site() is site
    again = build_microscape_site.__wrapped__()
    assert again.html.body == site.html.body
    assert [o.size for o in again.image_objects] == [
        o.size for o in site.image_objects]


def test_page_has_42_embedded_images(site):
    assert len(site.embedded_urls()) == 42
    assert len(site.all_urls()) == 43
    assert site.all_urls()[0] == HTML_URL


def test_embedded_urls_hashes_only_an_unfamiliar_body_object(site):
    expected = site.embedded_urls()
    # The same body object: answered without hashing or parsing.
    with mock.patch.object(microscape.hashlib, "sha256",
                           side_effect=AssertionError("hashed")):
        assert site.embedded_urls() == expected
    # An equal but distinct body (an unpickled or artifact-store copy):
    # recognised by digest, still not re-parsed.
    html = site.html
    copy = dataclasses.replace(html, body=bytes(bytearray(html.body)))
    assert copy.body is not html.body
    twin = microscape.MicroscapeSite({**site.objects, html.url: copy})
    twin._embedded_cache = site._embedded_cache
    with mock.patch.object(microscape.html_mod, "distinct_image_urls",
                           side_effect=AssertionError("re-parsed")):
        assert twin.embedded_urls() == expected
        assert twin.embedded_urls() == expected
    # Different content: parsed afresh.
    edited = dataclasses.replace(html, body=html.body.replace(
        b'src="/gifs/hero.gif"', b'src="/gifs/other.gif"'))
    assert edited.body != html.body
    twin.objects[html.url] = edited
    assert "/gifs/other.gif" in twin.embedded_urls()
    assert "/gifs/other.gif" not in site.embedded_urls()


def test_html_is_about_42kb(site):
    """Paper: 'typical HTML totaling 42KB'."""
    assert 40_000 <= site.html.size <= 48_000


def test_images_total_about_125kb(site):
    """Paper: '42 inlined GIF images totaling 125KB'."""
    assert 110_000 <= site.total_image_bytes <= 135_000


def test_static_gif_total_near_paper(static_images):
    """Paper: 'The 40 static GIF images ... totaled 103,299 bytes'."""
    total = sum(o.size for o in static_images)
    assert len(static_images) == 40
    assert abs(total - 103_299) / 103_299 < 0.10


def test_animation_total_near_paper(site):
    """Paper: 'The two GIF animations totaled 24,988 bytes'."""
    total = sum(o.size for o in site.animations)
    assert len(site.animations) == 2
    assert abs(total - 24_988) / 24_988 < 0.10


def test_size_histogram_matches_paper(static_images):
    """Paper: 19 images < 1KB, 7 in 1-2KB, 6 in 2-3KB."""
    sizes = [o.size for o in static_images]
    assert sum(1 for s in sizes if s < 1024) == 19
    assert sum(1 for s in sizes if 1024 <= s < 2048) == 7
    assert sum(1 for s in sizes if 2048 <= s < 3072) == 6


def test_size_extremes(site):
    """Paper: images 'range in size from 70B to 40KB'."""
    sizes = [o.size for o in site.image_objects]
    assert min(sizes) < 120
    assert 30_000 < max(sizes) < 42_000


def test_over_half_the_bytes_in_hero_and_animations(site, static_images):
    """Paper: 'Over half of the data was contained in a single image
    and two animations.'"""
    hero = max(static_images, key=lambda o: o.size)
    top = hero.size + sum(o.size for o in site.animations)
    assert top > 0.45 * site.total_image_bytes


def test_all_bodies_are_valid_gifs(site, static_images):
    for obj in static_images:
        decoded = decode_gif(obj.body)
        assert decoded.width > 0
    for obj in site.animations:
        frames = decode_animated_gif(obj.body)
        assert len(frames) >= 2


def test_html_references_every_object_once(site):
    html = site.html.body.decode("latin-1")
    urls = find_image_urls(html)
    assert len(urls) == len(set(urls)) == 42
    for url in urls:
        assert url in site.objects


def test_html_compresses_like_the_paper(site):
    """Paper: 42K -> 11K, 'a typical factor of gain' (~3x, ratio ~0.27)."""
    ratio = len(zlib.compress(site.html.body)) / site.html.size
    assert 0.20 <= ratio <= 0.35


def test_roles_assigned(site):
    roles = {o.role for o in site.image_objects}
    assert ImageRole.TEXT_BANNER in roles
    assert ImageRole.SPACER in roles
    assert ImageRole.ANIMATION in roles
    assert all(o.role is not None for o in site.image_objects)


def test_banner_objects_carry_text(site):
    banners = [o for o in site.image_objects
               if o.role == ImageRole.TEXT_BANNER]
    assert banners
    assert all(o.text for o in banners)


def test_image_pixels_stored_for_conversion(site):
    for obj in site.image_objects:
        if obj.role == ImageRole.ANIMATION:
            assert obj.frames is not None
        else:
            assert obj.image is not None
