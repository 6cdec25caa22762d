#!/usr/bin/env python3
"""Why HTTP/1.1 persistence is not just Keep-Alive: the proxy deadlock.

The paper notes HTTP/1.1's design "differs in minor details from
Keep-Alive to overcome a problem discovered when Keep-Alive is used
with more than one proxy between a client and a server."  This demo
narrates the measurement behind the ledger's ``keep-alive-proxy``
claim (``python -m repro claims``): a client sends
``Connection: Keep-Alive`` through a blind HTTP/1.0 proxy, the origin
holds the proxied connection open, and the whole exchange stalls until
the proxy's idle timeout — then the same fetch goes through an
HTTP/1.1-compliant proxy that strips hop-by-hop headers.

Run:  python examples/proxy_keepalive.py
"""

from repro.analysis.claims import fetch_through_proxy


def main() -> None:
    print("GET /gifs/bullet0.gif with 'Connection: Keep-Alive',")
    print("through two different proxies:")
    print()
    for mode, label in (("blind", "blind HTTP/1.0 proxy "
                                  "(forwards Connection verbatim)"),
                        ("hop_by_hop", "HTTP/1.1 proxy "
                                       "(strips hop-by-hop headers)")):
        responses, quiet_at, idle_timeouts = fetch_through_proxy(mode)
        print(f"  {label}")
        print(f"    response statuses: {[r.status for r in responses]}")
        print(f"    connection + proxy resources released by "
              f"t={quiet_at:.2f}s")
        print(f"    proxy idle timeouts: {idle_timeouts}")
        print()
    print("Through the blind proxy, the origin honoured the forwarded")
    print("Keep-Alive, so the proxy's close-delimited relay could not")
    print("finish: client connection and upstream slot stayed wedged")
    print("for the full 15-second idle timeout.  A response without a")
    print("Content-Length (any CGI output of the era) would have kept")
    print("the *user waiting* that long, too.  HTTP/1.1 fixed this by")
    print("making Connection strictly hop-by-hop.")


if __name__ == "__main__":
    main()
