"""Website catalogs for the closed- and open-world experiments.

The closed world is the paper's Appendix A list: the Alexa top-100 sites
(as of July 2021) after the paper's exclusions.  The open world adds
further unique sites, each visited exactly once, labeled "non-sensitive"
(paper §4.1).
"""

from __future__ import annotations

from typing import List

from repro.workload.website import WebsiteProfile, profile_for

#: Appendix A — the 100 closed-world websites, in the paper's order.
CLOSED_WORLD_SITES: tuple[str, ...] = (
    "1688.com", "6.cn", "adobe.com",
    "alibaba.com", "aliexpress.com", "alipay.com",
    "amazon.com", "aparat.com", "apple.com",
    "babytree.com", "baidu.com", "bbc.com",
    "bing.com", "booking.com", "canva.com",
    "chase.com", "cnblogs.com", "cnn.com",
    "csdn.net", "daum.net", "detik.com",
    "dropbox.com", "ebay.com", "espn.com",
    "etsy.com", "facebook.com", "fandom.com",
    "force.com", "freepik.com", "github.com",
    "godaddy.com", "gome.com.cn", "google.com",
    "grammarly.com", "hao123.com", "haosou.com",
    "xinhuanet.com", "huanqiu.com", "ilovepdf.com",
    "imdb.com", "imgur.com", "indeed.com",
    "instagram.com", "intuit.com", "jd.com",
    "kompas.com", "linkedin.com", "live.com",
    "mail.ru", "medium.com", "microsoft.com",
    "msn.com", "myshopify.com", "naver.com",
    "netflix.com", "nytimes.com", "office.com",
    "ok.ru", "okezone.com", "panda.tv",
    "paypal.com", "pikiran-rakyat.com", "pinterest.com",
    "primevideo.com", "qq.com", "rakuten.co.jp",
    "reddit.com", "rednet.cn", "roblox.com",
    "salesforce.com", "savefrom.net", "sina.com.cn",
    "slack.com", "so.com", "sohu.com",
    "spotify.com", "stackoverflow.com", "taobao.com",
    "telegram.org", "tianya.cn", "tiktok.com",
    "tmall.com", "tradingview.com", "tribunnews.com",
    "tumblr.com", "twitch.tv", "twitter.com",
    "vk.com", "walmart.com", "weibo.com",
    "wetransfer.com", "whatsapp.com", "wikipedia.org",
    "wordpress.com", "yahoo.com", "youtube.com",
    "yy.com", "zhanqi.tv", "zillow.com",
    "zoom.us",
)

#: Label used for every open-world trace the attacker has no class for.
NON_SENSITIVE_LABEL = "non-sensitive"


def closed_world(n_sites: int | None = None) -> List[WebsiteProfile]:
    """The first ``n_sites`` closed-world profiles (all 100 by default).

    The three marquee sites (nytimes/amazon/weather) keep their
    hand-written signatures; the rest are procedurally generated from a
    stable per-name seed.
    """
    names = CLOSED_WORLD_SITES if n_sites is None else CLOSED_WORLD_SITES[:n_sites]
    if n_sites is not None and not 1 <= n_sites <= len(CLOSED_WORLD_SITES):
        raise ValueError(
            f"n_sites must be in [1, {len(CLOSED_WORLD_SITES)}], got {n_sites}"
        )
    return [profile_for(name) for name in names]


def marquee_sites() -> List[WebsiteProfile]:
    """The paper's three running-example sites, in figure order."""
    return [profile_for(n) for n in ("nytimes.com", "amazon.com", "weather.com")]


def open_world(n_sites: int, seed_offset: int = 1_000_000) -> List[WebsiteProfile]:
    """``n_sites`` unique non-sensitive sites, each visited once.

    Names are synthetic (``openworld-<k>.example``); seeds are offset so
    they never collide with closed-world signatures.
    """
    if n_sites < 0:
        raise ValueError(f"n_sites cannot be negative, got {n_sites}")
    return [
        WebsiteProfile(f"openworld-{k}.example", seed=seed_offset + k)
        for k in range(n_sites)
    ]
