"""Scripted designer sessions: mapping every simulated site by example.

In the paper a human webbase designer browses each site for ~30 minutes
while the map builder watches.  These functions are those browsing
sessions, scripted: each one drives a browser through the site's flows
(including the dynamically generated second form and the "More" loop
where the site has them), points at one example tuple per data page, and
returns the finished :class:`~repro.navigation.builder.MapBuilder`.

The hints passed to each builder are the session's *manual* facts — the
attribute renames and mandatory-text declarations the paper quantifies as
"less than 5% of the information in the map".
"""

from __future__ import annotations

from typing import Callable

from repro.errors import WebBaseError
from repro.navigation.builder import DesignerHints, MapBuilder
from repro.navigation.navmap import NavigationMap
from repro.sites.world import World
from repro.web.browser import Browser


class MappingError(WebBaseError):
    """A designer session found no ``demonstration`` it needs (an example
    row, a detail link) on this world's ``site``."""

    def __init__(self, site: str, demonstration: str) -> None:
        super().__init__("cannot map %s by example: no %s" % (site, demonstration))
        self.site = site
        self.demonstration = demonstration


def _first_data_row(page, columns: list[str]) -> dict[str, str]:
    """Read the first row of the page's data table as an example tuple."""
    for table in page.tables():
        if len(table) >= 2:
            return dict(zip(columns, table[1]))
    raise MappingError(page.url.host, "example row in a data table on %s" % page.url)


def _first_block(page, labels: list[str]) -> dict[str, str]:
    """Read the first labeled block (dl) as an example tuple."""
    blocks = page.dom.find_all("dl")
    if not blocks:
        raise MappingError(page.url.host, "labeled example block on %s" % page.url)
    values = [dd.text() for dd in blocks[0].find_all("dd")]
    return dict(zip(labels, values))


def _link(page, name: str):
    """The first link called ``name`` on ``page``."""
    for link in page.links:
        if link.name == name:
            return link
    raise MappingError(page.url.host, "%r link on %s" % (name, page.url))


def _follow_more(browser) -> None:
    """Page through a listing the way a designer demonstrating the More
    loop would (one More click records the self-edge; we walk to the end
    so sessions also serve as full-listing sanity checks)."""
    while browser.page is not None and browser.page.has_link_named("More"):
        browser.follow_named("More")


def _reach_data_page(browser, make_field: str, make: str, model_field: str, model: str):
    """Submit the first form; if the site answers with a refinement form
    (too many matches), fill it too.  Mirrors what a designer would do and
    keeps sessions robust across world sizes."""
    page = browser.submit_by_attribute({make_field: make})
    if page.forms:
        page = browser.submit_by_attribute({model_field: model})
    return page


def map_newsday(world: World) -> MapBuilder:
    """Figure 2: link(auto), form f1(make), the conditional form f2, data
    pages with More, and per-row Car Features detail pages."""
    browser = Browser(world.server)
    builder = MapBuilder("www.newsday.com")
    browser.subscribe(builder)

    browser.get("http://www.newsday.com/")
    browser.follow_named("Auto")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    example = _first_data_row(page, ["make", "model", "year", "price", "contact"])
    example["url"] = str(_link(page, "Car Features").address)
    builder.mark_data_page("newsday", example)
    _follow_more(browser)
    # Demonstrate the direct branch (few ads -> data page immediately),
    # the More loop, and a detail page.
    browser.get("http://www.newsday.com/classified/cars")
    browser.submit_by_attribute({"make": "saab"})
    _follow_more(browser)
    page = browser.page
    detail = browser.follow(_link(page, "Car Features"))
    dds = [dd.text() for dd in detail.dom.find_all("dd")]
    builder.mark_data_page(
        "newsday_car_features", {"features": dds[0], "picture": dds[1]}
    )
    return builder


def map_nytimes(world: World) -> MapBuilder:
    browser = Browser(world.server)
    builder = MapBuilder("www.nytimes.com")
    browser.subscribe(builder)
    browser.get("http://www.nytimes.com/")
    browser.follow_named("Automobiles")
    page = browser.submit_by_attribute({"manufacturer": "ford"})
    builder.mark_data_page(
        "nytimes",
        _first_data_row(
            page,
            ["manufacturer", "model", "year", "features", "asking_price", "contact"],
        ),
    )
    _follow_more(browser)
    return builder


def map_carpoint(world: World) -> MapBuilder:
    hints = DesignerHints(attr_renames={"zipcode": "zip"})
    browser = Browser(world.server)
    builder = MapBuilder("www.carpoint.com", hints)
    browser.subscribe(builder)
    browser.get("http://www.carpoint.com/")
    browser.follow_named("Used Inventory")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    builder.mark_data_page(
        "carpoint",
        _first_data_row(
            page, ["make", "model", "year", "price", "features", "zip", "dealer"]
        ),
    )
    _follow_more(browser)
    browser.get("http://www.carpoint.com/used")
    browser.submit_by_attribute({"make": "saab"})  # few -> direct data page
    _follow_more(browser)
    return builder


def map_autoweb(world: World) -> MapBuilder:
    hints = DesignerHints(attr_renames={"zip": "zip_code"})
    browser = Browser(world.server)
    builder = MapBuilder("www.autoweb.com", hints)
    browser.subscribe(builder)
    browser.get("http://www.autoweb.com/")
    browser.follow_named("Browse Cars")
    page = browser.submit_by_attribute({"make": "ford"})
    builder.mark_data_page(
        "autoweb",
        _first_data_row(
            page,
            ["year", "make", "model", "options", "price", "zip_code", "seller"],
        ),
    )
    _follow_more(browser)
    return builder


def map_kellys(world: World) -> MapBuilder:
    hints = DesignerHints(
        attr_renames={"blue_book_price": "bb_price"}, mandatory_text={"model"}
    )
    browser = Browser(world.server)
    builder = MapBuilder("www.kbb.com", hints)
    browser.subscribe(builder)
    browser.get("http://www.kbb.com/")
    browser.follow_named("Used Car Values")
    page = browser.submit_by_attribute(
        {"make": "ford", "model": "escort", "condition": "good"}
    )
    builder.mark_data_page(
        "kellys", _first_data_row(page, ["make", "model", "year", "condition", "bb_price"])
    )
    return builder


def map_caranddriver(world: World) -> MapBuilder:
    browser = Browser(world.server)
    builder = MapBuilder("www.caranddriver.com")
    browser.subscribe(builder)
    browser.get("http://www.caranddriver.com/")
    browser.follow_named("Safety Ratings")
    page = browser.submit_by_attribute({"make": "jaguar"})
    builder.mark_data_page(
        "caranddriver", _first_data_row(page, ["make", "model", "year", "safety"])
    )
    return builder


def map_carfinance(world: World) -> MapBuilder:
    hints = DesignerHints(
        attr_renames={"zipcode": "zip_code"}, mandatory_text={"zip_code"}
    )
    browser = Browser(world.server)
    builder = MapBuilder("www.carfinance.com", hints)
    browser.subscribe(builder)
    browser.get("http://www.carfinance.com/")
    browser.follow_named("Loan Rates")
    page = browser.submit_by_attribute({"zipcode": "10001"})
    builder.mark_data_page(
        "carfinance", _first_data_row(page, ["zip_code", "duration", "rate"])
    )
    return builder


def map_wwwheels(world: World) -> MapBuilder:
    browser = Browser(world.server)
    builder = MapBuilder("www.wwwheels.com")
    browser.subscribe(builder)
    browser.get("http://www.wwwheels.com/")
    browser.follow_named("Find a Car")
    page = browser.submit_by_attribute({"make": "ford"})
    builder.mark_data_page(
        "wwwheels",
        _first_data_row(page, ["make", "model", "year", "price", "zip", "contact"]),
    )
    _follow_more(browser)
    return builder


def map_carreviews(world: World) -> MapBuilder:
    browser = Browser(world.server)
    builder = MapBuilder("www.carreviews.com")
    browser.subscribe(builder)
    browser.get("http://www.carreviews.com/")
    browser.follow_named("Classifieds")
    page = browser.submit_by_attribute({"make": "ford"})
    builder.mark_data_page(
        "carreviews",
        _first_data_row(page, ["make", "model", "year", "price", "contact"]),
    )
    _follow_more(browser)
    return builder


def map_nydailynews(world: World) -> MapBuilder:
    browser = Browser(world.server)
    builder = MapBuilder("www.nydailynews.com")
    browser.subscribe(builder)
    browser.get("http://www.nydailynews.com/")
    browser.follow_named("Auto Classifieds")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    builder.mark_data_page(
        "nydaily", _first_data_row(page, ["make", "model", "year", "price", "contact"])
    )
    _follow_more(browser)
    browser.get("http://www.nydailynews.com/classified/auto")
    browser.submit_by_attribute({"make": "saab"})  # direct branch
    _follow_more(browser)
    return builder


def map_autoconnect(world: World) -> MapBuilder:
    browser = Browser(world.server)
    builder = MapBuilder("www.autoconnect.com")
    browser.subscribe(builder)
    browser.get("http://www.autoconnect.com/")
    browser.follow_named("Dealer Search")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    builder.mark_data_page(
        "autoconnect",
        _first_data_row(
            page,
            ["make", "model", "year", "price", "equipment", "location", "contact"],
        ),
    )
    _follow_more(browser)
    browser.get("http://www.autoconnect.com/dealers")
    browser.submit_by_attribute({"make": "saab"})
    _follow_more(browser)
    return builder


def map_yahoocars(world: World) -> MapBuilder:
    browser = Browser(world.server)
    builder = MapBuilder("cars.yahoo.com")
    browser.subscribe(builder)
    browser.get("http://cars.yahoo.com/")
    browser.follow_named("Used Car Listings")
    page = browser.submit_by_attribute({"make": "ford"})
    builder.mark_data_page(
        "yahoocars", _first_block(page, ["make", "model", "year", "price", "contact"])
    )
    _follow_more(browser)
    return builder


def map_usedcarmart(world: World) -> MapBuilder:
    """The multi-handle site: the designer demonstrates *both* access
    forms (by make and by zip code), so the compiler derives two handles
    with different mandatory sets for the same relation (Section 3)."""
    browser = Browser(world.server)
    builder = MapBuilder("www.usedcarmart.com")
    browser.subscribe(builder)
    browser.get("http://www.usedcarmart.com/")
    browser.follow_named("Search by Make")
    page = browser.submit_by_attribute({"make": "ford"})
    builder.mark_data_page(
        "usedcarmart",
        _first_data_row(page, ["make", "model", "year", "price", "zip", "contact"]),
    )
    _follow_more(browser)
    browser.get("http://www.usedcarmart.com/")
    browser.follow_named("Search by Zip Code")
    browser.submit_by_attribute({"zip": "10001"})
    _follow_more(browser)
    return builder


SESSIONS: dict[str, Callable[[World], MapBuilder]] = {
    "www.newsday.com": map_newsday,
    "www.nytimes.com": map_nytimes,
    "www.carpoint.com": map_carpoint,
    "www.autoweb.com": map_autoweb,
    "www.kbb.com": map_kellys,
    "www.caranddriver.com": map_caranddriver,
    "www.carfinance.com": map_carfinance,
    "www.wwwheels.com": map_wwwheels,
    "www.carreviews.com": map_carreviews,
    "www.nydailynews.com": map_nydailynews,
    "www.autoconnect.com": map_autoconnect,
    "cars.yahoo.com": map_yahoocars,
    "www.usedcarmart.com": map_usedcarmart,
}


def build_all_maps(world: World) -> dict[str, NavigationMap]:
    """Run every designer session; returns host -> finished navigation map."""
    return {host: session(world).map for host, session in SESSIONS.items()}


def build_all_builders(world: World) -> dict[str, MapBuilder]:
    """Run every designer session; returns host -> builder (with stats)."""
    return {host: session(world) for host, session in SESSIONS.items()}
