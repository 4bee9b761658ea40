"""Built-in deterministic annotation provider and synonym lexicon.

A small hand-written word table (lemma -> POS), an entity phrase table, and a
table-driven lemmatizer (irregulars plus -s/-ed/-ing stripping). Enough to
annotate the running examples and synthetic corpora without any external NLP
dependency; real corpora should be tagged offline and ingested via
`load_annotations_file`.
"""

from __future__ import annotations

import hashlib
import re

from .annotation import AnnotatedSentence, SynonymLexicon, Token, tokenize

_NUM_RE = re.compile(r"^\d+([.,]\d+)*$")

_AUX = """be have do will would can could should may might must shall""".split()

_VERB = """play find book see make go get take come give look want need try
call work eat drink order serve wait pay buy spend recommend suggest love
hate like enjoy visit return arrive leave open close cook bake sing dance
listen watch read write run walk sit stand feel seem taste smell sound help
ask tell say know think remember forget set turn stop start bring send show
offer deliver park drive fly travel stay sleep wake plan check add remove
cancel update remind charge cost complain smile cry laugh miss win lose
wear put keep move use talk speak learn teach""".split()

_NOUN = """food variety staff service price lobster menu restaurant place
spot time day song music track tune ticket train flight bus car hotel room
table chair meal dish cuisine breakfast lunch dinner dessert coffee tea beer
wine water bread cheese pizza burger steak salad soup chicken fish
environment atmosphere ambiance vibe setting decor customer client guest
patron shopper waiter waitress server employee manager owner people person
man woman child friend family experience quality value portion size location
area city town street parking bathroom kitchen bar patio view weather alarm
calendar reminder email message phone news recommendation audio volume
playlist artist album radio podcast story movie show game joy anger fear
sadness surprise happiness money bill tip deal discount bargain sale fee
product item thing way year week month hour minute night morning evening
star review rating option choice line door wall light garden seat waitstaff
host hostess chef plate glass cup fork knife spoon napkin counter booth""".split()

_ADJ = """amazing great good awesome excellent wonderful fantastic terrific
bad terrible awful horrible poor cheap affordable reasonable budget-friendly
inexpensive economical pricey expensive costly tasty delicious yummy
flavorful fresh stale hot cold warm cool big small large tiny huge new old
young nice friendly polite courteous helpful rude impolite unfriendly slow
fast quick clean dirty cozy comfortable noisy quiet loud busy crowded empty
beautiful lovely pretty ugly happy glad joyful cheerful sad unhappy gloomy
miserable angry mad furious scared afraid anxious surprised amazed shocked
chill relaxed calm perfect special favorite different same next last first
real sure long short high low full free local fine fancy casual romantic
bland overpriced generous attentive""".split()

_ADV = """very really quite too so always never often sometimes here there
again well badly definitely probably maybe soon today tomorrow tonight
yesterday everywhere inside outside upstairs downstairs""".split()

_PRON = """i you he she it we they me him her us them this that these those
my your his its our their who what which someone something anyone anything
everyone everything nobody nothing""".split()

_NUM_WORDS = """one two three four five six seven eight nine ten zero
hundred thousand dozen half""".split()

_PROPN = """monday tuesday wednesday thursday friday saturday sunday january
february march april june july august september october november december
york houston california texas boston chicago seattle paris london taylor
swift google amazon openai yelp spotify netflix starbucks""".split()

WORD_POS: dict[str, str] = {}
for _words, _tag in (
    (_AUX, "AUX"),
    (_VERB, "VERB"),
    (_NOUN, "NOUN"),
    (_ADJ, "ADJ"),
    (_ADV, "ADV"),
    (_PRON, "PRON"),
    (_NUM_WORDS, "NUM"),
    (_PROPN, "PROPN"),
):
    for _w in _words:
        WORD_POS.setdefault(_w, _tag)

IRREGULAR_LEMMAS = {
    "am": "be", "is": "be", "are": "be", "was": "be", "were": "be",
    "been": "be", "being": "be",
    "has": "have", "had": "have",
    "does": "do", "did": "do", "done": "do",
    "goes": "go", "went": "go", "gone": "go",
    "made": "make", "took": "take", "taken": "take", "came": "come",
    "gave": "give", "given": "give", "got": "get", "gotten": "get",
    "ate": "eat", "eaten": "eat", "drank": "drink", "paid": "pay",
    "bought": "buy", "spent": "spend", "sang": "sing", "sung": "sing",
    "sat": "sit", "stood": "stand", "felt": "feel", "left": "leave",
    "told": "tell", "said": "say", "knew": "know", "known": "know",
    "thought": "think", "saw": "see", "seen": "see", "found": "find",
    "brought": "bring", "sent": "send", "drove": "drive", "flew": "fly",
    "slept": "sleep", "woke": "wake", "kept": "keep", "put": "put",
    "wore": "wear", "won": "win", "lost": "lose", "spoke": "speak",
    "taught": "teach", "better": "good", "best": "good",
    "worse": "bad", "worst": "bad",
    "men": "man", "women": "woman", "children": "child", "people": "people",
}

# Phrase -> entity tag, matched greedily longest-first over lowercased surfaces.
ENTITY_PHRASES: dict[tuple[str, ...], str] = {}
for _day in ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"):
    ENTITY_PHRASES[(_day,)] = "DATE"
    ENTITY_PHRASES[("next", _day)] = "DATE"
    ENTITY_PHRASES[("last", _day)] = "DATE"
for _month in ("january", "february", "march", "april", "june", "july", "august",
               "september", "october", "november", "december"):
    ENTITY_PHRASES[(_month,)] = "DATE"
for _extra in ("today", "tomorrow", "tonight", "yesterday"):
    ENTITY_PHRASES[(_extra,)] = "DATE"
ENTITY_PHRASES[("next", "week")] = "DATE"
ENTITY_PHRASES[("next", "month")] = "DATE"
for _loc in (("new", "york", "city"), ("new", "york"), ("houston",), ("tx",),
             ("california",), ("texas",), ("boston",), ("chicago",),
             ("seattle",), ("paris",), ("london",)):
    ENTITY_PHRASES[_loc] = "LOCATION"
ENTITY_PHRASES[("taylor", "swift")] = "PERSON"
for _org in ("google", "amazon", "openai", "yelp", "spotify", "netflix", "starbucks"):
    ENTITY_PHRASES[(_org,)] = "ORG"

_MAX_PHRASE_LEN = max(len(p) for p in ENTITY_PHRASES)
_PHRASE_STARTS = frozenset(p[0] for p in ENTITY_PHRASES)

SYNONYM_GROUPS: tuple[tuple[str, ...], ...] = (
    ("pricey", "expensive", "costly"),
    ("amazing", "great", "good", "awesome", "excellent", "wonderful", "fantastic", "terrific"),
    ("cheap", "affordable", "reasonable", "budget-friendly", "inexpensive", "economical"),
    ("bad", "terrible", "awful", "horrible", "poor"),
    ("pay", "price", "sale", "cost", "charge", "fee", "buy"),
    ("environment", "atmosphere", "ambiance", "vibe", "setting", "decor"),
    ("customer", "client", "guest", "patron", "shopper"),
    ("food", "meal", "dish", "cuisine"),
    ("staff", "waiter", "waitress", "server", "employee", "waitstaff"),
    ("song", "music", "track", "tune"),
    ("happy", "glad", "joyful", "cheerful"),
    ("sad", "unhappy", "gloomy", "miserable"),
    ("angry", "mad", "furious"),
    ("scared", "afraid", "anxious"),
    ("rude", "impolite", "unfriendly"),
    ("friendly", "polite", "courteous", "attentive"),
    ("tasty", "delicious", "yummy", "flavorful"),
    ("noisy", "loud"),
    ("quiet", "calm"),
    ("cozy", "comfortable"),
    ("quick", "fast"),
    ("chill", "relaxed"),
)


def fixture_synonyms() -> SynonymLexicon:
    return SynonymLexicon(SYNONYM_GROUPS)


def lemmatize(word: str) -> str:
    """Lowercase, then resolve irregulars and -s/-ed/-ing variants of table words."""
    w = word.lower()
    if w in WORD_POS:
        return w
    if w in IRREGULAR_LEMMAS:
        return IRREGULAR_LEMMAS[w]
    candidates: list[str] = []
    if w.endswith("ies") and len(w) > 4:
        candidates.append(w[:-3] + "y")
    if w.endswith("s") and len(w) > 3:
        candidates.append(w[:-1])
        if w.endswith("es"):
            candidates.append(w[:-2])
    for suffix in ("ing", "ed"):
        if w.endswith(suffix) and len(w) > len(suffix) + 1:
            base = w[: -len(suffix)]
            candidates.extend((base, base + "e"))
            if len(base) >= 2 and base[-1] == base[-2]:
                candidates.append(base[:-1])
    for cand in candidates:
        if cand in WORD_POS:
            return cand
        if cand in IRREGULAR_LEMMAS:
            return IRREGULAR_LEMMAS[cand]
    return w


def pos_of(lemma: str) -> str:
    tag = WORD_POS.get(lemma)
    if tag is not None:
        return tag
    if _NUM_RE.match(lemma):
        return "NUM"
    return "OTHER"


class FixtureAnnotationProvider:
    """Deterministic provider backed by the hand-written tables above.

    Each distinct (surface, entity) pair becomes one Token, built and
    validated when it is first seen and shared by every later sentence.
    """

    def __init__(self):
        self._tokens: dict[tuple[str, str | None], Token] = {}

    def annotate(self, raw: str) -> AnnotatedSentence:
        surfaces = tokenize(raw)
        lowered = [s.lower() for s in surfaces]
        entities: list[str | None] = [None] * len(surfaces)
        i = len(surfaces) if _PHRASE_STARTS.isdisjoint(lowered) else 0  # no word starts a phrase
        while i < len(surfaces):
            step = 1
            if lowered[i] in _PHRASE_STARTS:
                for span in range(min(_MAX_PHRASE_LEN, len(surfaces) - i), 0, -1):
                    tag = ENTITY_PHRASES.get(tuple(lowered[i : i + span]))
                    if tag is not None:
                        entities[i : i + span] = [tag] * span
                        step = span
                        break
            i += step
        known = self._tokens
        # A list, not a generator: a tuple grown from a generator is resized as it
        # fills, and the process keeps more memory after each command.
        tokens = [known.get(key) or self._new_token(key) for key in zip(surfaces, entities)]
        sid = "fx-" + hashlib.sha1(raw.encode("utf-8")).hexdigest()[:12]
        return AnnotatedSentence(sid, raw, tokens)

    def _new_token(self, key: tuple[str, str | None]) -> Token:
        surface, entity = key
        lemma = lemmatize(surface)
        token = self._tokens[key] = Token(surface, lemma, pos_of(lemma), entity)
        return token
