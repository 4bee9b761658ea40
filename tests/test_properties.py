"""Property tests: the fast matching and synthesis paths against slow references.

`match_sentence` is checked against `brute_force_match`, `find_matches`
against an exhaustive span enumeration written from its documented rules,
the packed beam search of `enumerate_candidates` against a beam search
that scores every candidate with `match_sentence` over every example and
keeps the children that match no positive in its beam, `enumerate_atoms`
against the union of each token's atoms, and
the packed set cover of `synthesize_patterns` against a cover that counts
distinct example ids, and both on a shuffled pool against the same pool
in drawn order. The fixture provider's shared tokens and its entity
scan are checked against a fresh provider and a scan of every span. The
pieces under them are checked too: `atom_mask` read from a sentence's
feature table against the per-token `atom_matches_token`, and `advance` on
sentences packed into one integer against `advance` on each sentence alone.
The filter arms that `survivors_by_arm` reads off the rows of one
`run_pipeline` are checked against `judged_survivors_by_arm`, which judges
each stage once per candidate, and `run_pipeline` against
`reference_pipeline`, which judges a candidate's stages one `judge` call at
a time; `judge` calls the stage functions itself and turns their errors
into failed verdicts.
Pattern parsing is checked for clean errors and render round-trips, the
gateway's cache key for stability and against the sha256 of the request's
canonical JSON, the candidate and audit line writers against `json.dumps`
of the oracle's records and against their readers, and `fill` for putting
each slot value into a prompt verbatim.
"""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from patvar import patterns
from patvar.annotation import AnnotatedSentence, SynonymLexicon, Token, tokenize
from patvar.experiment import Dataset
from patvar.filtering import (
    ARMS,
    STAGES,
    FilterRow,
    StageVerdict,
    compute_metrics,
    discriminator_filter,
    heuristic_filter,
    rows_from_audit,
    run_pipeline,
    survivors_by_arm,
    symbolic_filter,
)
from patvar.fixtures import ENTITY_PHRASES, FixtureAnnotationProvider
from patvar.gateway import (
    FINISH_REASONS,
    ROLES,
    TEMPERATURE,
    BackendError,
    ChatMessage,
    CompletionRequest,
    Gateway,
    MockBackend,
    cache_key,
)
from patvar.generation import (
    CounterfactualCandidate,
    GenerationTask,
    ResponseFormatError,
    candidate_fields,
    candidates_from_records,
)
from patvar.patterns import (
    WILDCARD,
    Atom,
    MatchSpan,
    PatternAst,
    PatternSyntaxError,
    advance,
    atom_mask,
    atom_matches_token,
    brute_force_match,
    find_matches,
    match_sentence,
    parse_pattern,
    render_pattern,
    sentence_features,
)
from patvar.prompts import fill, load_template
from patvar.synthdata import LABEL_VOCAB
from patvar.synthesis import (
    LabeledExample,
    RELAXED_PRECISION,
    ScoredPattern,
    SynthesisConfig,
    enumerate_atoms,
    enumerate_candidates,
    pack,
    scored,
    synthesize_patterns,
)

from oracles import (
    ENTITY_CHOICES,
    POS_CHOICES,
    SENTENCE_VOCAB,
    WORD_CHOICES,
    audit_record,
    candidate_record,
    decoded_candidates,
    json_line,
    random_pattern,
)

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ANNOTATOR = FixtureAnnotationProvider()

any_atom = st.one_of(
    st.sampled_from(POS_CHOICES).map(lambda word: Atom("pos", word)),
    st.sampled_from(WORD_CHOICES).map(lambda word: Atom("lemma", word)),
    st.sampled_from(WORD_CHOICES).map(lambda word: Atom("soft", word)),
    st.sampled_from(ENTITY_CHOICES).map(lambda word: Atom("entity", word)),
    st.just(WILDCARD),
)


def _collapse(seq):
    return tuple(
        a for i, a in enumerate(seq)
        if not (i > 0 and a == WILDCARD and seq[i - 1] == WILDCARD)
    )


def raw_sentences(max_words):
    # Lengths are drawn uniformly, so long sentences with repeated words are common.
    return st.integers(0, max_words).flatmap(
        lambda size: st.lists(st.sampled_from(SENTENCE_VOCAB), min_size=size, max_size=size)
    ).map(" ".join)


@st.composite
def cases(draw, max_words, max_atoms=5):
    """A sentence and a pattern of one to three alternatives and at most
    `max_atoms` atoms, drawn mostly from the sentence's own tokens so that
    matches, repeated placements and several spans are common."""
    s = ANNOTATOR.annotate(draw(raw_sentences(max_words)))
    own = [Atom("pos", t.pos) for t in s.tokens if t.pos != "OTHER"]
    own += [Atom("lemma", t.lemma) for t in s.tokens] + [Atom("soft", t.lemma) for t in s.tokens]
    own += [Atom("entity", t.entity) for t in s.tokens if t.entity]
    atoms = st.one_of(st.sampled_from(own), any_atom) if own else any_atom
    alternatives, budget = [], max_atoms
    while budget > 0 and len(alternatives) < 3:
        size = draw(st.integers(1, budget))
        seq = draw(st.lists(atoms, min_size=size, max_size=size))
        if draw(st.booleans()):
            # A wildcard before each atom, so that the wildcards' takes matter.
            seq = [x for atom in seq[: (size + 1) // 2] for x in (WILDCARD, atom)][size % 2 :]
        seq = _collapse(seq)
        alternatives.append(seq)
        budget -= len(seq)
        if not draw(st.booleans()):
            break
    return PatternAst(tuple(alternatives)), s


@PROPERTY_SETTINGS
@given(case=cases(12))
def test_match_sentence_agrees_with_brute_force(lexicon, case):
    p, s = case
    assert match_sentence(p, s, lexicon) == brute_force_match(p, s, lexicon), render_pattern(p)


# ---------------------------------------------------------------------------
# Feature-table masks and packed states against per-token and per-sentence steps
# ---------------------------------------------------------------------------

# Symmetric but not transitive: b is a synonym of a and of c, but c is not one of a.
CHAIN_LEXICON = SynonymLexicon([("a", "b"), ("b", "c")])
TOKEN_LEMMAS = ("a", "b", "c", "d")
TOKEN_ENTITIES = (None, "DATE", "ORG")

token_lists = st.lists(
    st.builds(
        lambda lemma, pos, entity: Token(lemma, lemma, pos, entity),
        st.sampled_from(TOKEN_LEMMAS),
        st.sampled_from((*POS_CHOICES, "OTHER")),
        st.sampled_from(TOKEN_ENTITIES),
    ),
    max_size=10,
)
table_atoms = st.one_of(
    st.sampled_from((*POS_CHOICES, "OTHER")).map(lambda word: Atom("pos", word)),
    st.sampled_from(TOKEN_LEMMAS).map(lambda word: Atom("lemma", word)),
    st.sampled_from(TOKEN_LEMMAS).map(lambda word: Atom("soft", word)),
    st.sampled_from(TOKEN_ENTITIES[1:]).map(lambda word: Atom("entity", word)),
)


@PROPERTY_SETTINGS
@given(toks=token_lists, atom=table_atoms)
def test_atom_mask_agrees_with_per_token_test(toks, atom):
    s = AnnotatedSentence("s", " ".join(t.surface for t in toks), tuple(toks))
    want = sum(1 << t for t, token in enumerate(s.tokens) if atom_matches_token(atom, token, CHAIN_LEXICON))
    assert atom_mask(atom, sentence_features(s.tokens), CHAIN_LEXICON) == want
    assert atom_mask(WILDCARD, sentence_features(s.tokens), CHAIN_LEXICON) is None


@st.composite
def segments(draw):
    """(n, end-position state, token mask) of one sentence; states are often empty."""
    n = draw(st.integers(0, 8))
    state = draw(st.one_of(st.just(0), st.integers(0, (1 << (n + 1)) - 1)))
    return n, state, draw(st.integers(0, (1 << n) - 1))


@PROPERTY_SETTINGS
@given(rows=st.lists(segments(), min_size=1, max_size=8), wildcard=st.booleans())
def test_packed_advance_agrees_with_each_sentence(rows, wildcard):
    state = mask = guard = valid = offset = 0
    want = want_hit = 0
    for n, s_state, s_mask in rows:
        alone = advance(s_state, None if wildcard else s_mask, 1 << (n + 1), (1 << (n + 1)) - 1)
        # The single-sentence step by its definition.
        if wildcard:
            low = (s_state & -s_state).bit_length() - 1
            assert alone == (sum(1 << p for p in range(low, n + 1)) if s_state else 0)
        else:
            assert alone == sum(1 << (t + 1) for t in range(n) if s_state >> t & s_mask >> t & 1)
        state |= s_state << offset
        mask |= s_mask << offset
        valid |= ((1 << (n + 1)) - 1) << offset
        guard |= 1 << (offset + n + 1)
        want |= alone << offset
        if alone:
            want_hit |= 1 << (offset + n + 1)
        offset += n + 2
    got = advance(state, None if wildcard else mask, guard, valid)
    assert got == want
    assert (got + valid) & guard == want_hit


def test_synthesis_never_tests_atoms_token_by_token(provider, lexicon, monkeypatch):
    def forbidden(*args):
        raise AssertionError("atom_matches_token called")

    monkeypatch.setattr(patterns, "atom_matches_token", forbidden)
    texts = ("Good food with great variety.", "The food was amazing.", "The staff was rude.")
    examples = [
        LabeledExample(dataclasses.replace(provider.annotate(raw), id=f"s{i}"), "a" if i < 2 else "b")
        for i, raw in enumerate(texts)
    ]
    cfg = SynthesisConfig(max_atoms=3)
    assert enumerate_candidates(pack(examples), "a", cfg, lexicon)
    food_adj = parse_pattern("[food]+*+ADJ|(cheap)|$DATE")
    assert match_sentence(food_adj, examples[1].sentence, lexicon)
    assert find_matches(food_adj, examples[1].sentence, lexicon) is not None


# ---------------------------------------------------------------------------
# find_matches against exhaustive span enumeration
# ---------------------------------------------------------------------------


def _anchored_matches(seq, tokens, start, lex):
    """Every way `seq` matches from `start`: (end, wildcard takes, bindings)."""
    n = len(tokens)
    n_wild = sum(a == WILDCARD for a in seq)
    for takes in itertools.product(range(n - start + 1), repeat=n_wild):
        pos, bindings, pending = start, [], iter(takes)
        for atom in seq:
            if atom == WILDCARD:
                step = next(pending)
            elif pos < n and atom_matches_token(atom, tokens[pos], lex):
                step = 1
            else:
                break
            bindings.append((pos, pos + step))
            pos += step
        else:
            if pos <= n:
                yield pos, takes, tuple(bindings)


def reference_span(p, s, lex):
    """find_matches by its docstring: the leftmost start at which any
    alternative matches, and there the minimal end (ties: the earlier
    alternative, then the lexicographically smallest wildcard takes); None
    when no start has a match."""
    for start in range(len(s.tokens) + 1):
        best = None
        for idx, seq in enumerate(p.alternatives):
            found = list(_anchored_matches(seq, s.tokens, start, lex))
            if not found:
                continue
            end, _, bindings = min(found)
            if best is None or end < best.end:
                best = MatchSpan(start, end, idx, bindings)
        if best is not None:
            return best
    return None


@PROPERTY_SETTINGS
@given(case=cases(8, max_atoms=6))
def test_find_matches_agrees_with_span_enumeration(lexicon, case):
    p, s = case
    span = find_matches(p, s, lexicon)
    assert span == reference_span(p, s, lexicon), render_pattern(p)
    assert (span is None) == (not match_sentence(p, s, lexicon)), render_pattern(p)


# ---------------------------------------------------------------------------
# Pruned candidate enumeration against scoring every candidate in full
# ---------------------------------------------------------------------------


def _full_score(seq, positives, negatives, lex):
    pattern = PatternAst((seq,))
    pos_ids = frozenset(ex.sentence.id for ex in positives if match_sentence(pattern, ex.sentence, lex))
    hits = len(pos_ids) + sum(match_sentence(pattern, ex.sentence, lex) for ex in negatives)
    precision = len(pos_ids) / hits if hits else 0.0
    recall = len(pos_ids) / len(positives)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScoredPattern(pattern, pos_ids, precision, recall, f1, render_pattern(pattern))


def token_atoms(token, lex):
    """The atoms one token yields: its lemma, its POS tag unless OTHER, its
    lemma as a soft atom when the lexicon has it, and its entity tag if any."""
    atoms = {Atom("lemma", token.lemma)}
    if token.pos != "OTHER":
        atoms.add(Atom("pos", token.pos))
    if token.lemma in lex:
        atoms.add(Atom("soft", token.lemma))
    if token.entity is not None:
        atoms.add(Atom("entity", token.entity))
    return atoms


@PROPERTY_SETTINGS
@given(raws=st.lists(st.one_of(raw_sentences(6), st.sampled_from(
    ("", "see 5 stars", "next monday in new york", "Good food, great price."))), max_size=5))
@example(raws=["", "see 5 stars", "next monday in new york", "Good food, great price."])
def test_enumerate_atoms_is_the_union_of_each_tokens_atoms(lexicon, raws):
    sentences = [ANNOTATOR.annotate(raw) for raw in raws]
    want = {WILDCARD}.union(*(token_atoms(t, lexicon) for s in sentences for t in s.tokens))
    assert enumerate_atoms(sentences, lexicon) == want


def reference_candidates(positives, negatives, cfg, lex):
    """The beam search of enumerate_candidates, scoring every child on every
    example and keeping children that match no positive in the beam."""
    pool = {WILDCARD}.union(*(token_atoms(t, lex) for ex in positives for t in ex.sentence.tokens))
    pool = sorted(pool, key=lambda a: render_pattern(PatternAst(((a,),))))

    def key(sp):
        return (-sp.f1, len(sp.pattern.alternatives[0]), sp.rendered)

    def keep(sp):
        seq = sp.pattern.alternatives[0]
        if sp.matched_positive_ids and not all(a == WILDCARD for a in seq):
            candidates.setdefault(sp.rendered, sp)

    candidates = {}
    beam = sorted((_full_score((a,), positives, negatives, lex) for a in pool), key=key)
    for sp in beam:
        keep(sp)
    for _ in range(cfg.max_atoms - 1):
        extended = []
        for sp in beam[: cfg.beam_width]:
            seq = sp.pattern.alternatives[0]
            for atom in pool:
                if atom == WILDCARD and seq[-1] == WILDCARD:
                    continue
                child = _full_score(seq + (atom,), positives, negatives, lex)
                extended.append(child)
                keep(child)
        if not extended:
            break
        beam = sorted(extended, key=key)
    return sorted(candidates.values(), key=key)


def labeled(provider, corpus):
    """Examples of label "a" (positives) and "b" (negatives) from drawn (text,
    is positive) pairs, in drawn order, with the first relabeled "a" when no
    pair is positive; and the positives and negatives apart."""
    examples = [
        LabeledExample(dataclasses.replace(provider.annotate(raw), id=f"s{i}"),
                       "a" if positive or i == 0 and not any(p for _, p in corpus) else "b")
        for i, (raw, positive) in enumerate(corpus)
    ]
    positives = [ex for ex in examples if ex.label == "a"]
    negatives = [ex for ex in examples if ex.label == "b"]
    return examples, positives, negatives


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus=st.lists(st.tuples(raw_sentences(6), st.booleans()), min_size=1, max_size=6),
    max_atoms=st.integers(1, 4),
    beam_width=st.integers(1, 6),
)
# Fewer children than beam_width match the positive, so a beam that keeps
# every child carries parents that match no positive into the next length.
@example(corpus=[("food", True), ("the staff was rude", False), ("cheap lobster", False)],
         max_atoms=4, beam_width=6)
@example(corpus=[("5", True), ("", True), ("next monday in new york", False)],
         max_atoms=4, beam_width=6)
# The bare wildcard has the best F1 of length 1, so with one slot the beam
# grows from `*` alone.
@example(corpus=[("lobster", True), ("was", True), ("!", True), ("xyzzy", False)],
         max_atoms=3, beam_width=1)
# The bounds of `positive_bits`, the bits of the positives' segments: a positive
# whose only match of `lobster` is its last token, a positive that is the last
# example of the pool, and an empty positive ahead of a negative.
@example(corpus=[("the food lobster", True), ("the food", False)], max_atoms=2, beam_width=6)
@example(corpus=[("cheap lobster", False), ("the staff", False), ("good food", True)],
         max_atoms=2, beam_width=6)
@example(corpus=[("", True), ("xyzzy food", False), ("food", True)], max_atoms=2, beam_width=6)
def test_pruned_candidates_match_full_scoring(provider, lexicon, corpus, max_atoms, beam_width):
    examples, positives, negatives = labeled(provider, corpus)
    cfg = SynthesisConfig(max_atoms=max_atoms, beam_width=beam_width)
    got = decoded_candidates(pack(examples), "a", cfg, lexicon)
    want = reference_candidates(positives, negatives, cfg, lexicon)
    assert [c.rendered for c in got] == [c.rendered for c in want]
    assert got == want


# ---------------------------------------------------------------------------
# The packed set cover against a cover over decoded id sets
# ---------------------------------------------------------------------------


def reference_cover(candidates, positives, cfg):
    """Greedy cover of decoded candidates that counts distinct positive ids,
    done again at RELAXED_PRECISION when no candidate reaches a higher floor;
    [] when no floor is reached."""
    viable = [sp for sp in candidates if sp.precision >= cfg.min_precision - 1e-12]
    if not viable and cfg.min_precision > RELAXED_PRECISION:
        relaxed = dataclasses.replace(cfg, min_precision=RELAXED_PRECISION)
        return reference_cover(candidates, positives, relaxed)
    if not viable:
        return []
    uncovered = {ex.sentence.id for ex in positives}
    chosen = []
    while uncovered and len(chosen) < cfg.max_patterns:
        best = min(
            viable,
            key=lambda sp: (
                -len(sp.matched_positive_ids & uncovered),
                -sp.f1,
                len(sp.pattern.alternatives[0]),
                sp.rendered,
            ),
        )
        if not best.matched_positive_ids & uncovered:
            break
        chosen.append(best)
        uncovered -= best.matched_positive_ids
    return chosen


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus=st.lists(st.tuples(raw_sentences(6), st.booleans()), min_size=1, max_size=8),
    max_atoms=st.integers(1, 3),
    min_precision=st.sampled_from((1.0, 0.8, 0.5)),
    max_patterns=st.integers(1, 5),
)
def test_packed_cover_matches_id_set_cover(provider, lexicon, corpus, max_atoms, min_precision, max_patterns):
    examples, positives, _ = labeled(provider, corpus)
    pool = pack(examples)
    cfg = SynthesisConfig(max_patterns=max_patterns, max_atoms=max_atoms, min_precision=min_precision)
    want = reference_cover(decoded_candidates(pool, "a", cfg, lexicon), positives, cfg)
    got = synthesize_patterns(pool, "a", cfg, lexicon)
    assert [sp.rendered for sp in got] == [sp.rendered for sp in want]
    assert got == want


def searched(pool, label, cfg, lex):
    """Each candidate of `label` (render, tp, fp and decoded ids) and the chosen cover."""
    candidates = [(c.rendered, c.tp, c.fp, scored(c, pool))
                  for c in enumerate_candidates(pool, label, cfg, lex)]
    return candidates, [(sp.rendered, sp) for sp in synthesize_patterns(pool, label, cfg, lex)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus=st.lists(st.tuples(raw_sentences(6), st.booleans()), min_size=1, max_size=8),
    max_atoms=st.integers(1, 3),
    beam_width=st.integers(1, 6),
    min_precision=st.sampled_from((1.0, 0.8, 0.5)),
    data=st.data(),
)
def test_pool_order_never_changes_a_result(provider, lexicon, corpus, max_atoms, beam_width,
                                           min_precision, data):
    examples, _, _ = labeled(provider, corpus)
    shuffled = data.draw(st.permutations(examples))
    cfg = SynthesisConfig(max_atoms=max_atoms, beam_width=beam_width, min_precision=min_precision)
    for label in ("a", "b"):
        assert (searched(pack(shuffled), label, cfg, lexicon)
                == searched(pack(examples), label, cfg, lexicon)), label


# ---------------------------------------------------------------------------
# The fixture provider's shared tokens and entity scan against fresh, full ones
# ---------------------------------------------------------------------------

# Table words, inflections the lemmatizer resolves, unknown words, numbers and
# every first word of an entity phrase, in mixed case.
FIXTURE_WORDS = (
    "food", "Foods", "played", "playing", "amazing", "Cheaper", "went", "children",
    "prices", "tries", "xyzzy", "5", "3.50", "the", "was", "Monday", "next", "last",
    "week", "New", "york", "city", "taylor", "Swift", "TX", "Google", "today",
)
ENTITY_TEXTS = ("new york city", "New York", "next monday", "last Friday", "next week",
                "taylor swift", "Houston, TX")

fixture_texts = st.lists(
    st.tuples(st.sampled_from(FIXTURE_WORDS + ENTITY_TEXTS), st.sampled_from(("", ".", ",", "!?"))).map(
        "".join
    ),
    max_size=10,
).map(" ".join)


def reference_entities(surfaces):
    """The entity scan that tries every phrase length at every position."""
    lowered = [s.lower() for s in surfaces]
    entities, i = [None] * len(surfaces), 0
    while i < len(surfaces):
        for span in range(len(surfaces) - i, 0, -1):
            tag = ENTITY_PHRASES.get(tuple(lowered[i : i + span]))
            if tag is not None:
                entities[i : i + span] = [tag] * span
                i += span
                break
        else:
            i += 1
    return entities


@PROPERTY_SETTINGS
@given(earlier=st.lists(fixture_texts, max_size=5), text=fixture_texts)
def test_shared_tokens_annotate_like_a_fresh_provider(earlier, text):
    provider = FixtureAnnotationProvider()
    for raw in earlier:
        provider.annotate(raw)
    got = provider.annotate(text)
    assert got == FixtureAnnotationProvider().annotate(text)
    assert [t.entity for t in got.tokens] == reference_entities(tokenize(text))


# ---------------------------------------------------------------------------
# Filter arms from one verdict table against one pipeline run per arm
# ---------------------------------------------------------------------------

FILTER_LABELS = ("service", "price", "environment", "products")
FILTER_PATTERNS = ("(cheap)+*+NOUN", "[staff]", None)
# Refusals, prompt echoes, fragments and texts that keep or miss a pattern;
# the discriminator answers the last one with something that is not a label.
FILTER_TEXTS = (
    "The affordable lobster here is a steal.",
    "cannot generate counterfactual",
    "modified text: affordable lobster again.",
    "Service was slow today",
    "Nothing matches the pattern here today.",
    "The affordable staff was rude here.",
    "The tasty food impressed everyone greatly.",
    "so cheap",
    "A cheap deal and a tasty menu around.",
    "The cheap decor felt cozy tonight.",
)


@contextlib.contextmanager
def filter_args(lex, canned):
    """`run_pipeline`'s arguments after the candidates: the label set, the
    lexicon, the provider and a gateway that, over a temporary cache
    directory, asks the mock backend, except for the discriminator prompt of
    the last text."""
    slots = {"text": FILTER_TEXTS[-1], "labels": ", ".join(FILTER_LABELS)}
    backend = canned({tuple(fill(load_template("discriminator"), slots)): "no idea"},
                     fallback=MockBackend(label_vocab=LABEL_VOCAB))
    with tempfile.TemporaryDirectory() as cache_dir, \
            contextlib.closing(Gateway(backend, "m", cache_dir)) as gateway:
        yield FILTER_LABELS, lex, ANNOTATOR, gateway


candidate_batches = st.lists(
    st.tuples(
        st.permutations(FILTER_LABELS).map(lambda labels: labels[:2]),
        st.sampled_from(FILTER_PATTERNS),
        st.sampled_from(FILTER_TEXTS),
        st.sampled_from(("stop", "length")),
    ),
    max_size=8,
)


def filter_candidates(batch):
    original = ANNOTATOR.annotate("The staff was rude.")
    return [
        CounterfactualCandidate(
            uid=f"c{i}",
            task=GenerationTask(original, orig, target, parse_pattern(pattern) if pattern else None,
                                "affordable lobster" if pattern else ""),
            generated_text=text, used_phrase=None, finish_reason=finish,
        )
        for i, ((orig, target), pattern, text, finish) in enumerate(batch)
    ]


def judge(c, stage, args):
    """One stage's verdict on one candidate, and the label the discriminator
    assigned (None for the other stages and when the discriminator failed):
    a provider failure in the symbolic stage and a malformed or failed
    discriminator response read as failed verdicts."""
    label_set, lex, provider, gateway = args
    if stage == "heuristic":
        return heuristic_filter(c), None
    if stage == "symbolic":
        try:
            return symbolic_filter(c, lex, provider), None
        except Exception as exc:
            return StageVerdict("failed", f"error: {exc}"), None
    try:
        return discriminator_filter(c, label_set, gateway)
    except (ResponseFormatError, BackendError) as exc:
        return StageVerdict("failed", f"error: {exc}"), None


def judged_survivors_by_arm(candidates, args):
    """The survivors of each arm of `ARMS`, judging the
    heuristic stage on every candidate and the two later stages on every
    heuristic passer: an arm keeps the candidates no stage of it failed."""
    failed = []  # per candidate, the stages that failed it
    for c in candidates:
        if judge(c, "heuristic", args)[0].status == "failed":
            failed.append({"heuristic"})
        else:
            failed.append({s for s in STAGES[1:] if judge(c, s, args)[0].status == "failed"})
    return {arm: [c for c, bad in zip(candidates, failed) if bad.isdisjoint(stages)]
            for arm, stages in ARMS.items()}


@PROPERTY_SETTINGS
@given(batch=candidate_batches)
def test_survivors_by_arm_agree_with_run_pipeline(lexicon, canned, batch):
    candidates = filter_candidates(batch)
    with filter_args(lexicon, canned) as args:
        _, _, rows = run_pipeline(candidates, *args)
        by_arm = survivors_by_arm(rows)
        assert by_arm == judged_survivors_by_arm(candidates, args)
    assert list(by_arm) == list(ARMS)


def reference_pipeline(candidates, args):
    """`run_pipeline` spelled out: judge every stage of a candidate unless the
    heuristic stage fails it, then fill in each stage left unjudged as
    pending. The discriminator's label counts only when no earlier stage
    failed."""
    rows = []
    for cand in candidates:
        judged, label = {}, None
        for stage in STAGES:
            earlier_failed = any(v.status == "failed" for v in judged.values())
            judged[stage], assigned = judge(cand, stage, args)
            if not earlier_failed:
                label = label if assigned is None else assigned
            if stage == "heuristic" and judged[stage].status == "failed":
                break
        verdicts = {stage: judged.get(stage, StageVerdict("pending")) for stage in STAGES}
        rows.append(FilterRow(cand, verdicts, label))
    survivors = [row.candidate for row in rows
                 if all(v.status != "failed" for v in row.verdicts.values())]
    return survivors, compute_metrics(rows), rows


@PROPERTY_SETTINGS
@given(batch=candidate_batches)
def test_run_pipeline_agrees_with_the_reference_pipeline(lexicon, canned, batch):
    candidates = filter_candidates(batch)
    with filter_args(lexicon, canned) as args:
        assert run_pipeline(candidates, *args) == reference_pipeline(candidates, args)


# Pattern text: raw characters of the DSL, and runs of its tokens, which parse
# more often.
DSL_FRAGMENTS = (
    *POS_CHOICES, "[food]", "(cheap)", "$date", "$LOCATION", "*", "+", "|", " ",
    "[", "]", "(", ")", "$", "noun", "x", "-", "_",
)
pattern_texts = st.one_of(
    st.text(alphabet="[]()$*+| _-NOUNVERBADJadjfood01", max_size=30),
    st.lists(st.sampled_from(DSL_FRAGMENTS), max_size=12).map("".join),
)


@PROPERTY_SETTINGS
@given(text=pattern_texts)
def test_parse_pattern_fails_cleanly_or_round_trips(text):
    try:
        pattern = parse_pattern(text)
    except PatternSyntaxError as exc:
        assert 1 <= exc.column <= max(len(text), 1)
    else:
        assert parse_pattern(render_pattern(pattern)) == pattern


REQUEST_FIELDS = (
    st.sampled_from(("mock-model", "other-model")),
    st.lists(
        st.builds(
            ChatMessage, st.sampled_from(ROLES), st.sampled_from(("hi", "Hi", "h\u00e9", "a\nb"))
        ),
        min_size=1, max_size=3,
    ).map(tuple),
    st.sampled_from((1, 64, 256)),
)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cache_key_equal_iff_requests_equal(data):
    # model, messages, max_tokens; each field of b is a's or a fresh draw
    a = [data.draw(field) for field in REQUEST_FIELDS]
    b = [value if data.draw(st.booleans()) else data.draw(field)
         for value, field in zip(a, REQUEST_FIELDS)]
    same_key = cache_key(CompletionRequest(*a)) == cache_key(CompletionRequest(*b))
    assert same_key == (a == b)


def oracle_cache_key(r):
    """`cache_key` by its definition: sha256 of the request's canonical JSON."""
    payload = {"model": r.model, "messages": [[m.role, m.content] for m in r.messages],
               "temperature": TEMPERATURE, "max_tokens": r.max_tokens}
    text = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# Text with the characters JSON escapes or encodes as surrogate pairs.
key_texts = st.text(
    st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\u2028\u00e9\U0001f600'),
    min_size=1,
)


@PROPERTY_SETTINGS
@given(model=key_texts, messages=st.lists(st.builds(ChatMessage, st.sampled_from(ROLES), key_texts),
                                          max_size=3),
       max_tokens=st.integers(1, 10**6))
def test_cache_key_is_the_sha256_of_the_canonical_json(model, messages, max_tokens):
    r = CompletionRequest(model, tuple(messages), max_tokens)
    assert cache_key(r) == oracle_cache_key(r)


# Any text, lone surrogates too, but for a high surrogate right before a low
# one: any JSON reader reads that pair back as the one character it encodes.
line_texts = st.text(st.characters(exclude_categories=())).filter(
    lambda text: json.loads(json.dumps(text)) == text)
# Characters that JSON escapes, lone surrogates, and one it writes as a pair.
ESCAPED = '"\\\x00\x1f\x7f\u2028\udfff\ud800\U0001f600'


@st.composite
def audit_rows(draw):
    """A FilterRow that `rows_from_audit` accepts: a heuristic passer's later
    stages are judged, or skipped for the symbolic stage of a candidate with
    no pattern. Its original is the one example of `row_dataset(row)`."""
    labels = st.lists(line_texts.filter(bool), min_size=2, max_size=2, unique=True)
    original_label, target_label = draw(labels)
    raw = draw(line_texts)
    original = AnnotatedSentence(draw(line_texts), raw, tuple(Token(w, "x") for w in raw.split()))
    pattern = draw(st.none() | st.randoms(use_true_random=False).map(random_pattern))
    task = GenerationTask(original, original_label, target_label, pattern, draw(line_texts))
    candidate = CounterfactualCandidate(draw(line_texts), task, draw(line_texts),
                                        draw(st.none() | line_texts),
                                        draw(st.sampled_from(FINISH_REASONS)))
    judged = ("passed", "failed")
    heuristic = draw(st.sampled_from(judged))
    later = {  # stage -> the statuses it may read after this heuristic verdict
        "symbolic": judged + (("skipped",) if pattern is None else ()),
        "discriminator": judged,
    } if heuristic == "passed" else dict.fromkeys(STAGES[1:], ("pending", *judged, "skipped"))
    verdicts = {"heuristic": StageVerdict(heuristic, draw(line_texts))}
    for stage, statuses in later.items():
        verdicts[stage] = StageVerdict(draw(st.sampled_from(statuses)), draw(line_texts))
    return FilterRow(candidate, verdicts, draw(st.none() | line_texts))


def row_dataset(row):
    task = row.candidate.task
    return Dataset((LabeledExample(task.original, task.original_label),),
                   (task.original_label, task.target_label), ())


def escaped_row(pattern, heuristic, label):
    """A row whose every text holds ESCAPED."""
    text = f"a {ESCAPED} b"
    original = AnnotatedSentence(text, text, tuple(Token(w, "x") for w in text.split()))
    task = GenerationTask(original, text, text + "!", pattern, text)
    verdicts = {"heuristic": StageVerdict(heuristic, text),
                **dict.fromkeys(STAGES[1:], StageVerdict("failed", text))}
    return FilterRow(CounterfactualCandidate(text, task, text, label), verdicts, label)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(audit_rows(), min_size=1, max_size=3))
@example(rows=[escaped_row(parse_pattern("[cheap]"), "passed", f"a {ESCAPED} b"),
               escaped_row(None, "failed", None)])
def test_lines_are_the_json_of_their_records_and_read_back(rows):
    """The candidate and audit lines, written field by field with the patterns
    and verdicts that earlier lines encoded, have the bytes of `json.dumps` of
    the oracle's records, and read back to the candidate and the row."""
    encoded = {}
    for row in rows:
        candidate_line = "{" + candidate_fields(row.candidate, encoded) + "}"
        assert candidate_line == json_line(candidate_record(row.candidate))
        assert row.line(encoded) == json_line(audit_record(row))
        dataset = row_dataset(row)
        assert candidates_from_records([(1, json.loads(candidate_line))], dataset) == [row.candidate]
        assert rows_from_audit([(1, json.loads(row.line(encoded)))], dataset) == [row]


TEMPLATE_NAMES = ("candidate_phrases", "counterfactual_generator", "counterfactual_no_vt",
                  "discriminator", "multilabel_separator", "soft_match_constraint")
PLACEHOLDER = re.compile(r"\{([^{}]*)\}")


def placeholders(content):
    return PLACEHOLDER.findall(content)


# Slot values built from placeholder text, stray braces and plain words.
slot_values = st.lists(
    st.sampled_from(("{label}", "{labels}", "{target_label}", "{text}", "{pattern}",
                     "{match}", "{", "}", "{}", "cheap", " ", ", ")),
    max_size=5,
).map("".join)
# A template and values for some of its slots.
templates_and_slots = st.sampled_from(TEMPLATE_NAMES).flatmap(lambda name: st.tuples(
    st.just(name),
    st.dictionaries(
        st.sampled_from(sorted({p for m in load_template(name) for p in placeholders(m.content)})),
        slot_values,
    ),
))


@PROPERTY_SETTINGS
@given(drawn=templates_and_slots)
@example(drawn=("discriminator", {"text": "Great {labels} here.", "labels": "price, service"}))
def test_fill_puts_each_slot_value_in_verbatim(drawn):
    name, slots = drawn
    template = load_template(name)
    filled = fill(template, slots)
    assert [m.role for m in filled] == [m.role for m in template]
    for msg, out in zip(template, filled):
        names = placeholders(msg.content)
        for slot in names:
            assert (slots[slot] if slot in slots else "{" + slot + "}") in out.content
        # Only the placeholders were replaced, each by its value.
        assert len(out.content) == len(msg.content) + sum(
            len(slots[slot]) - len(slot) - 2 for slot in names if slot in slots)
