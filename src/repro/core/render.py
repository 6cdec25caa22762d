"""Perceived rendering timelines (the paper's future-work question).

"We have not investigated perceived time to render ..., but with the
range request techniques outlined in this paper, we believe HTTP/1.1
can perform well over a single connection."  This module measures it:

* **time to first HTML byte** — when anything can appear,
* **time to layout** — when the dimensions of every embedded image are
  known, so the page can be laid out without reflowing.  A browser
  learns a GIF's dimensions from its logical screen descriptor, i.e.
  the first 10 bytes of the file ("the first bytes typically contain
  the image size");
* **time to first complete image**, and
* **time to full render** — every object fully transferred.

Strategies compared: HTTP/1.0 with four parallel connections (dims
arrive early because four images download at once), serialized and
pipelined HTTP/1.1, and pipelined HTTP/1.1 with the paper's **"poor
man's multiplexing"** — ranged prefix requests that pull every image's
metadata over one connection before any image body monopolizes it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..client.robot import (ClientConfig, FIRST_TIME, Robot, TAIL_MARKER)
from ..content.microscape import MicroscapeSite
from ..http import Response
from ..server.profiles import ServerProfile
from ..simnet.engine import Simulator
from ..simnet.link import NetworkEnvironment
from .runner import ExperimentError, Testbed
from .transport import Transport

__all__ = ["RenderMetrics", "measure_render", "GIF_DIMENSION_BYTES"]

#: Bytes of a GIF needed for its logical screen descriptor (6-byte
#: signature + 4 bytes of width/height).
GIF_DIMENSION_BYTES = 10


@dataclasses.dataclass
class RenderMetrics:
    """When each rendering milestone became possible."""

    first_html_byte: Optional[float] = None
    html_complete: Optional[float] = None
    layout_complete: Optional[float] = None
    first_image_complete: Optional[float] = None
    full_render: Optional[float] = None
    images_expected: int = 0
    #: Whether every transferred byte matched the site content.
    verified: bool = False


class _RenderObserver:
    """Builds a :class:`RenderMetrics` from robot instrumentation."""

    def __init__(self, site: MicroscapeSite, sim: Simulator) -> None:
        self.site = site
        self.sim = sim
        self.metrics = RenderMetrics(
            images_expected=len(site.embedded_urls()))
        self._dims_known: Dict[str, bool] = {}
        self._complete: Dict[str, bool] = {}
        self._image_urls = set(site.embedded_urls())

    def attach(self, robot: Robot) -> None:
        robot.on_body_progress = self._progress
        robot.on_response = self._response

    def _now(self) -> float:
        return self.sim.now

    def _progress(self, url: str, response, bytes_so_far: int,
                  _chunk: bytes) -> None:
        if url == self.site.html_url:
            if self.metrics.first_html_byte is None:
                self.metrics.first_html_byte = self._now()
            return
        base = url[:-len(TAIL_MARKER)] if url.endswith(TAIL_MARKER) \
            else url
        if base in self._image_urls \
                and bytes_so_far >= GIF_DIMENSION_BYTES \
                and not url.endswith(TAIL_MARKER) \
                and not self._dims_known.get(base):
            self._dims_known[base] = True
            if len(self._dims_known) == len(self._image_urls):
                self.metrics.layout_complete = self._now()

    def _response(self, url: str, response) -> None:
        now = self._now()
        if url == self.site.html_url:
            self.metrics.html_complete = now
            return
        base = url[:-len(TAIL_MARKER)] if url.endswith(TAIL_MARKER) \
            else url
        if base not in self._image_urls:
            return
        if response.status == 206 and not url.endswith(TAIL_MARKER):
            # Prefix alone completes the image when it covered it all.
            from ..client.robot import _range_has_tail
            if _range_has_tail(response):
                return
        if not self._complete.get(base):
            self._complete[base] = True
            if self.metrics.first_image_complete is None:
                self.metrics.first_image_complete = now
            if len(self._complete) == len(self._image_urls):
                self.metrics.full_render = now

    def verify(self, responses: Dict[str, Response]) -> bool:
        """Reassemble every image and compare with the site content."""
        for url in self._image_urls:
            original = self.site.objects[url].body
            prefix = responses.get(url)
            if prefix is None:
                return False
            body = prefix.body
            tail = responses.get(url + TAIL_MARKER)
            if tail is not None:
                body = body + tail.body
            if body != original:
                return False
        html = responses.get(self.site.html_url)
        return html is not None and html.body == self.site.html.body


def measure_render(config: ClientConfig, environment: NetworkEnvironment,
                   profile: ServerProfile, *, seed: int = 0) -> RenderMetrics:
    """A jitter-free first-time retrieval's rendering timeline (its
    trace protocol-checked, as every unit's is)."""
    transport = Transport()
    testbed = Testbed(environment, profile, transport, seed=seed)
    observer = _RenderObserver(testbed.site, testbed.net.sim)
    try:
        result = testbed.fetch_page(transport, config, FIRST_TIME,
                                    attach=observer.attach)
        testbed.net.run()
        testbed.check_trace(transport, config, faulty=False)
    finally:
        testbed.close()
    if not result.complete:
        raise ExperimentError(f"render run incomplete: {result.errors}")
    observer.metrics.verified = observer.verify(result.responses)
    return observer.metrics
