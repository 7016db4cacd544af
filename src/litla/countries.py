"""Country inference from free-text affiliation addresses.

Addresses are typically comma-separated with the country last, so resolution
is a longest-suffix match against a bundled gazetteer of country names and
common variants, with a fallback heuristic for US addresses that end in a
state name or postal abbreviation (optionally followed by a ZIP code).
"""

from __future__ import annotations

import re
from functools import lru_cache

UNKNOWN = "UNKNOWN"

# name variant (normalized) -> ISO-3166 alpha-2
_GAZETTEER = {
    "afghanistan": "AF",
    "algeria": "DZ",
    "argentina": "AR",
    "australia": "AU",
    "austria": "AT",
    "bangladesh": "BD",
    "belgium": "BE",
    "brasil": "BR",
    "brazil": "BR",
    "bulgaria": "BG",
    "canada": "CA",
    "chile": "CL",
    "china": "CN",
    "p r china": "CN",
    "peoples r china": "CN",
    "peoples republic of china": "CN",
    "pr china": "CN",
    "colombia": "CO",
    "croatia": "HR",
    "cuba": "CU",
    "czech republic": "CZ",
    "czechia": "CZ",
    "denmark": "DK",
    "ecuador": "EC",
    "egypt": "EG",
    "england": "GB",
    "great britain": "GB",
    "northern ireland": "GB",
    "scotland": "GB",
    "u k": "GB",
    "uk": "GB",
    "united kingdom": "GB",
    "wales": "GB",
    "estonia": "EE",
    "ethiopia": "ET",
    "finland": "FI",
    "france": "FR",
    "germany": "DE",
    "greece": "GR",
    "hong kong": "HK",
    "hungary": "HU",
    "iceland": "IS",
    "india": "IN",
    "indonesia": "ID",
    "iran": "IR",
    "iraq": "IQ",
    "ireland": "IE",
    "israel": "IL",
    "italy": "IT",
    "japan": "JP",
    "jordan": "JO",
    "kazakhstan": "KZ",
    "kenya": "KE",
    "korea": "KR",
    "north korea": "KP",
    "republic of korea": "KR",
    "south korea": "KR",
    "kuwait": "KW",
    "latvia": "LV",
    "lebanon": "LB",
    "lithuania": "LT",
    "luxembourg": "LU",
    "macau": "MO",
    "malaysia": "MY",
    "mexico": "MX",
    "morocco": "MA",
    "netherlands": "NL",
    "the netherlands": "NL",
    "new zealand": "NZ",
    "nigeria": "NG",
    "norway": "NO",
    "oman": "OM",
    "pakistan": "PK",
    "peru": "PE",
    "philippines": "PH",
    "poland": "PL",
    "portugal": "PT",
    "qatar": "QA",
    "romania": "RO",
    "russia": "RU",
    "russian federation": "RU",
    "saudi arabia": "SA",
    "serbia": "RS",
    "singapore": "SG",
    "slovakia": "SK",
    "slovenia": "SI",
    "south africa": "ZA",
    "spain": "ES",
    "sri lanka": "LK",
    "sweden": "SE",
    "switzerland": "CH",
    "taiwan": "TW",
    "thailand": "TH",
    "tunisia": "TN",
    "turkey": "TR",
    "turkiye": "TR",
    "uae": "AE",
    "united arab emirates": "AE",
    "ukraine": "UA",
    "u s a": "US",
    "united states": "US",
    "united states of america": "US",
    "usa": "US",
    "uruguay": "UY",
    "uzbekistan": "UZ",
    "venezuela": "VE",
    "vietnam": "VN",
    "viet nam": "VN",
}

_US_STATES = {
    "alabama": "AL", "alaska": "AK", "arizona": "AZ", "arkansas": "AR",
    "california": "CA", "colorado": "CO", "connecticut": "CT",
    "delaware": "DE", "florida": "FL", "georgia": "GA", "hawaii": "HI",
    "idaho": "ID", "illinois": "IL", "indiana": "IN", "iowa": "IA",
    "kansas": "KS", "kentucky": "KY", "louisiana": "LA", "maine": "ME",
    "maryland": "MD", "massachusetts": "MA", "michigan": "MI",
    "minnesota": "MN", "mississippi": "MS", "missouri": "MO",
    "montana": "MT", "nebraska": "NE", "nevada": "NV",
    "new hampshire": "NH", "new jersey": "NJ", "new mexico": "NM",
    "new york": "NY", "north carolina": "NC", "north dakota": "ND",
    "ohio": "OH", "oklahoma": "OK", "oregon": "OR", "pennsylvania": "PA",
    "rhode island": "RI", "south carolina": "SC", "south dakota": "SD",
    "tennessee": "TN", "texas": "TX", "utah": "UT", "vermont": "VT",
    "virginia": "VA", "washington": "WA", "west virginia": "WV",
    "wisconsin": "WI", "wyoming": "WY",
}
_US_STATE_CODES = frozenset(c.lower() for c in _US_STATES.values())

# Longest variants first so the longest suffix wins; ties broken by the
# longer matched string, then alphabetically for determinism.
_VARIANTS = sorted(_GAZETTEER, key=lambda k: (-len(k), k))

_ZIP_RE = re.compile(r"\b\d{5}(?:-\d{4})?$")


def _normalize(address: str) -> str:
    return " ".join(re.sub(r"[^a-z0-9]+", " ", address.lower()).split())


def _ends_with(text: str, suffix: str) -> bool:
    return text == suffix or text.endswith(" " + suffix)


@lru_cache(maxsize=4096)  # a corpus repeats a few addresses across many authors
def infer_country(address: str) -> str:
    """Resolve one affiliation address to an ISO-3166 alpha-2 code.

    Unresolvable addresses map to ``UNKNOWN``; this never raises.
    """
    norm = _normalize(address)
    if not norm:
        return UNKNOWN
    for variant in _VARIANTS:
        if _ends_with(norm, variant):
            return _GAZETTEER[variant]
    # US heuristic: trailing "<state> <zip>" or bare trailing state.
    tail = _ZIP_RE.sub("", norm).strip()
    for state in _US_STATES:
        if _ends_with(tail, state):
            return "US"
    last = tail.rsplit(" ", 1)[-1] if tail else ""
    if last in _US_STATE_CODES and tail != last:
        return "US"
    return UNKNOWN
