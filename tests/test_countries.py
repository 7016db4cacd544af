from litla.countries import UNKNOWN, infer_country

# hand-labeled answer key for the resolution-rate check
LABELED = [
    ("Dept. of CS, Univ. of Exeter, Exeter EX4 4QF, UK", "GB"),
    ("UESTC, Chengdu, 611731, China", "CN"),
    ("School of EE, Xidian University, Xian 710071, Peoples R China", "CN"),
    ("MIT CSAIL, Cambridge, MA 02139, USA", "US"),
    ("Stanford University, Stanford, CA 94305", "US"),
    ("Michigan State University, East Lansing, Michigan", "US"),
    ("IIT Kanpur, Kanpur 208016, India", "IN"),
    ("University of Tokyo, Bunkyo, Tokyo, Japan", "JP"),
    ("Seoul National University, Seoul, South Korea", "KR"),
    ("KAIST, Daejeon, Republic of Korea", "KR"),
    ("CINVESTAV-IPN, Mexico City, Mexico", "MX"),
    ("University of Adelaide, Adelaide, SA, Australia", "AU"),
    ("INRIA, Lille, France", "FR"),
    ("TU Dortmund, Dortmund, Germany", "DE"),
    ("Univ Malaga, Malaga, Spain", "ES"),
    ("Politecnico di Milano, Milan, Italy", "IT"),
    ("University of Birmingham, Birmingham, England", "GB"),
    ("Heriot-Watt University, Edinburgh, Scotland", "GB"),
    ("Cardiff University, Cardiff, Wales", "GB"),
    ("Queens University Belfast, Belfast, Northern Ireland", "GB"),
    ("TU Delft, Delft, The Netherlands", "NL"),
    ("KU Leuven, Leuven, Belgium", "BE"),
    ("ETH Zurich, Zurich, Switzerland", "CH"),
    ("Chalmers University, Gothenburg, Sweden", "SE"),
    ("NTNU, Trondheim, Norway", "NO"),
    ("Aalto University, Espoo, Finland", "FI"),
    ("University of Coimbra, Coimbra, Portugal", "PT"),
    ("Universidade de Sao Paulo, Sao Paulo, Brazil", "BR"),
    ("Universidad de Chile, Santiago, Chile", "CL"),
    ("Pontificia Universidad Catolica, Bogota, Colombia", "CO"),
    ("University of Cape Town, Rondebosch, South Africa", "ZA"),
    ("Cairo University, Giza, Egypt", "EG"),
    ("King Abdulaziz University, Jeddah, Saudi Arabia", "SA"),
    ("Khalifa University, Abu Dhabi, United Arab Emirates", "AE"),
    ("Sharif University of Technology, Tehran, Iran", "IR"),
    ("Bilkent University, Ankara, Turkey", "TR"),
    ("Technion, Haifa, Israel", "IL"),
    ("National University of Singapore, Singapore", "SG"),
    ("City University of Hong Kong, Kowloon, Hong Kong", "HK"),
    ("National Taiwan University, Taipei, Taiwan", "TW"),
    ("Chulalongkorn University, Bangkok, Thailand", "TH"),
    ("Universiti Teknologi Malaysia, Johor, Malaysia", "MY"),
    ("Hanoi University of Science and Technology, Hanoi, Vietnam", "VN"),
    ("University of Warsaw, Warsaw, Poland", "PL"),
    ("Charles University, Prague, Czech Republic", "CZ"),
    ("ELTE, Budapest, Hungary", "HU"),
    ("Lomonosov Moscow State University, Moscow, Russia", "RU"),
    ("University of Auckland, Auckland, New Zealand", "NZ"),
    ("University of British Columbia, Vancouver, Canada", "CA"),
    ("Trinity College Dublin, Dublin, Ireland", "IE"),
]


def test_suffix_match_uk():
    assert infer_country("Dept. of CS, Univ. of Exeter, Exeter EX4 4QF, UK") == "GB"


def test_suffix_match_china():
    assert infer_country("UESTC, Chengdu, 611731, China") == "CN"


def test_us_state_zip_heuristic():
    assert infer_country("Somewhere Lab, Houston, TX 77005") == "US"


def test_us_state_name_without_zip():
    assert infer_country("Ohio State University, Columbus, Ohio") == "US"


def test_unresolvable_is_unknown():
    assert infer_country("Deep Crevasse Research Station, Atlantis") == UNKNOWN
    assert infer_country("") == UNKNOWN


def test_longest_suffix_wins():
    # "korea" alone would be ambiguous; the longer variant decides
    assert infer_country("Pyongyang Univ, North Korea") == "KP"
    assert infer_country("Seoul, South Korea") == "KR"


def infer_countries(addresses: list[str]) -> list[str]:
    return [infer_country(a) for a in addresses]


def test_labeled_batch_resolution_rate():
    addresses = [a for a, _ in LABELED]
    expected = [c for _, c in LABELED]
    got = infer_countries(addresses)
    correct = sum(1 for g, e in zip(got, expected) if g == e)
    assert len(LABELED) == 50
    assert correct >= 48, [
        (a, g, e) for (a, e), g in zip(LABELED, got) if g != e
    ]
