"""Seeded inputs, timed rounds and reference checks of the four workloads.

Every workload is closed-loop and single-client: the next call starts
when the previous one returns.  The program receives only token lists;
the seed picks the words, while the shape of the inputs (text counts,
sentence counts, entity counts, circuit widths) is fixed, so that every
seed asks for the same amount of work.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
import traceback

import numpy as np

from discocirc import ansatz as dc_ansatz
from discocirc import ingest as dc_ingest
from discocirc import pipeline as dc_pipeline
from discocirc import sandwich as dc_sandwich
from discocirc import sim as dc_sim
from discocirc.ansatz import AnsatzConfig
from discocirc.frames import Box, Frame, Par, Seq
from discocirc.rewrite import builtin_rule
from discocirc.sandwich import SandwichConfig

import refsim
from calibrate import CALIB_REF_S, calibration_seconds

# --- vocabulary ---------------------------------------------------------------

# the two-topic vocabulary of the repository's training tests
COOKING = {
    "subjects": [("chef", "he"), ("woman", "she")],
    "verbs": ["cooks", "prepares", "bakes", "serves", "tastes", "makes"],
    "objects": ["soup", "bread", "dinner", "lunch", "meal", "food"],
    "adjectives": ["tasty", "fresh", "great", "good"],
}
PROGRAMMING = {
    "subjects": [("programmer", "she"), ("man", "he")],
    "verbs": ["writes", "debugs", "fixes", "tests", "solves"],
    "objects": ["code", "program", "bug", "problems", "work"],
    "adjectives": ["efficient", "clever", "new", "large"],
}
VERBS = ["reads", "loves", "found", "followed", "bought", "prepares",
         "writes", "likes", "plays", "cooks", "bakes", "fixes", "solves",
         "debugs", "enjoys", "makes", "saw", "tastes", "serves", "tests"]
INTRANSITIVE = ["runs", "sleeps", "works"]
# every object noun is neuter, so no pronoun here can bind to one
OBJECTS = ["books", "bikes", "bike", "map", "clues", "treasure", "music",
           "piano", "basket", "groceries", "lunch", "dinner", "program",
           "recipes", "problems", "work", "code", "food", "kitchen",
           "office", "meal", "soup", "bread", "bug", "story", "garden",
           "letter"]
PEOPLE = ["man", "woman", "chef", "programmer"]
FEMALE = ["Alice", "woman", "programmer"]
MALE = ["Bob", "man", "chef"]


def two_topic_texts(rng: random.Random, n_texts: int):
    """Labelled three-sentence paragraphs, half per topic, shuffled: a
    subject sentence then two sentences carried by the subject's pronoun."""
    texts = []
    for i in range(n_texts):
        label = i % 2
        topic = PROGRAMMING if label else COOKING
        subject, pronoun = rng.choice(topic["subjects"])
        sentences = [["the", subject, rng.choice(topic["verbs"]),
                      rng.choice(topic["adjectives"]),
                      rng.choice(topic["objects"])]]
        for _ in range(2):
            sentences.append([pronoun, rng.choice(topic["verbs"]),
                              "the", rng.choice(topic["objects"])])
        texts.append((sentences, label))
    rng.shuffle(texts)
    return texts


# pronoun sentences per story width; the 7-qubit story has an
# intransitive second sentence, so one object fewer
_PRONOUN_SENTENCES = {7: 3, 8: 3, 9: 4, 10: 5}


def wide_story(rng: random.Random, width: int) -> list[list[str]]:
    """A story whose circuit has ``width`` qubits: two gendered subjects,
    pronoun sentences each adding an object, and a closing reflexive
    sentence whose two mentions of one entity need a spider copy.

    Qubits = 2 subjects + objects + 1 copy.
    """
    she, he = rng.choice(FEMALE), rng.choice(MALE)
    sentences = [[she, rng.choice(VERBS), "the", rng.choice(OBJECTS)]]
    if width == 7:
        sentences.append([he, rng.choice(INTRANSITIVE)])
    else:
        sentences.append([he, rng.choice(VERBS), "the", rng.choice(OBJECTS)])
    for i in range(_PRONOUN_SENTENCES[width]):
        pronoun = "She" if i % 2 == 0 else "He"
        sentences.append([pronoun, rng.choice(VERBS), "the",
                          rng.choice(OBJECTS)])
    sentences.append(["She", rng.choice(VERBS), "herself"])
    return sentences


def _verbs_without_repeats(rng: random.Random, n: int) -> list[str]:
    """Seeded verbs with no verb twice in a row, so that the order check
    on a wire can tell consecutive sentences apart."""
    verbs = []
    for _ in range(n):
        verbs.append(rng.choice([v for v in VERBS
                                 if not verbs or v != verbs[-1]]))
    return verbs


def coref_chain_document(rng: random.Random, n: int):
    """One subject referred to by "she" in every later sentence; every
    sentence adds a fresh indefinite object.

    Returns the sentences, the entity count and, for each entity by its
    first mention (sentence, token), the verbs its wire must carry."""
    verbs = _verbs_without_repeats(rng, n)
    sentences = [["Alice", verbs[0], "a", rng.choice(OBJECTS)]]
    for verb in verbs[1:]:
        sentences.append(["she", verb, "a", rng.choice(OBJECTS)])
    wire_verbs = {(0, 0): verbs}
    wire_verbs.update({(i, 3): [v] for i, v in enumerate(verbs)})
    return sentences, n + 1, wire_verbs


def many_entity_document(rng: random.Random, n: int):
    """Indefinite subject and object in every sentence and no pronoun:
    each sentence adds two entities."""
    verbs = _verbs_without_repeats(rng, n)
    sentences = [["a", rng.choice(PEOPLE), verb, "a", rng.choice(OBJECTS)]
                 for verb in verbs]
    wire_verbs = {}
    for i, verb in enumerate(verbs):
        wire_verbs[(i, 1)] = wire_verbs[(i, 4)] = [verb]
    return sentences, 2 * n, wire_verbs


# --- shared pieces ------------------------------------------------------------

class Tally:
    """Timings and operation counts collected over one run."""

    def __init__(self):
        self.front = []  # sentences per second, one value per timed pass
        self.ops = []    # operations per second, one value per timed call
        self.calib = [calibration_seconds()]
        self.attempted = 0
        self.failed = 0

    def record(self, front: float | None = None,
               ops: float | None = None) -> None:
        """Store the rates of the call that just ended, and time the
        calibration loop once more."""
        if front is not None:
            self.front.append(front)
        if ops is not None:
            self.ops.append(ops)
        self.calib.append(calibration_seconds())

    def scaled(self, rates: list[float]) -> float:
        """The median rate, scaled to a machine that runs the calibration
        loop in CALIB_REF_S; 0 when no call succeeded."""
        if not rates:
            return 0.0
        return (statistics.median(rates) * statistics.median(self.calib)
                / CALIB_REF_S)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        print(f"perfbench: {what}", file=sys.stderr)


def _raised(tally: Tally, what: str, count: int = 1) -> None:
    traceback.print_exc(file=sys.stderr)
    tally.fail(f"{what} raised", count)


def walk(el):
    """Yield a diagram element and everything nested inside it."""
    yield el
    if isinstance(el, (Seq, Par)):
        for sub in el.elements:
            yield from walk(sub)
    elif isinstance(el, Frame):
        for sub in el.components:
            yield from walk(sub)


def front_end(tokens, cfg) -> object:
    """Tokens to a frame-free text diagram through the public stages."""
    doc = dc_ingest.parse_text(tokens, cfg.lexicon)
    reports = dc_pipeline.treeize(doc, cfg)
    td = dc_pipeline.diagrams(doc, reports, cfg)
    return dc_sandwich.expand_frames(td, cfg.sandwich)


def train_split(n: int) -> int:
    """Samples ``train`` fits on: it holds out a fifth of the dataset."""
    return max(1, int(round(n * 0.8))) if n > 1 else 1


# --- train workloads ----------------------------------------------------------

class TrainWorkload:
    """Compile labelled texts to circuits, then train on them.

    One round compiles every text ``compile_repeats`` times and makes one
    ``train`` call, for one epoch, per slice of the dataset.  Training
    starts from the compiled initial values on every call, so every call
    does the same work.
    """

    gradient: str
    compile_repeats: int
    slices: list[slice]
    checked_circuits: int
    checked_symbols: int | None

    def __init__(self, seed: int, lexicon):
        self.seed = seed
        self.cfg = dc_pipeline.PipelineConfig(
            lexicon=lexicon,
            rewrites=[builtin_rule("determiner"),
                      builtin_rule("noun_modification")],
            ansatz=AnsatzConfig("sim4", 1, 1, share_parameters=True,
                                seed=seed))
        self.texts = self.make_texts(random.Random(seed))
        self.sentences = sum(len(tokens) for tokens, _ in self.texts)
        self.dataset = []

    def make_texts(self, rng):
        raise NotImplementedError

    def expected_qubits(self, index: int) -> int:
        raise NotImplementedError

    def compile_all(self, tally: Tally) -> None:
        dataset = []
        front_s = 0.0
        for index, (tokens, label) in enumerate(self.texts):
            tally.attempted += 1
            try:
                start = time.perf_counter()
                td = front_end(tokens, self.cfg)
                mid = time.perf_counter()
                c = dc_ansatz.compile(dc_ansatz.append_merge_box(td),
                                      self.cfg.ansatz)
            except Exception:
                _raised(tally, f"compiling text {index}")
                continue
            front_s += mid - start
            if (c.n_qubits != self.expected_qubits(index)
                    or len(c.outputs) != 1):
                tally.fail(f"text {index}: {c.n_qubits} qubits, outputs "
                           f"{c.outputs}; expected "
                           f"{self.expected_qubits(index)} and one output")
            dataset.append((c, label))
        self.dataset = dataset
        if front_s > 0:
            tally.record(front=self.sentences / front_s)

    def train_slice(self, part: slice, tally: Tally) -> None:
        data = self.dataset[part]
        samples = train_split(len(data))
        tally.attempted += samples
        # the config seed is fixed so that the held-out sample sits at the
        # same position, and so has the same width, on every seed
        cfg = dc_sim.TrainConfig(epochs=1, batch_size=10, learning_rate=0.01,
                                 seed=0, gradient=self.gradient)
        try:
            start = time.perf_counter()
            params, history = dc_sim.train(data, cfg)
            elapsed = time.perf_counter() - start
        except Exception:
            _raised(tally, "train", samples)
            return
        loss = history.rows[-1][1] if history.rows else float("nan")
        if not (math.isfinite(loss)
                and all(math.isfinite(v) for v in params.values())):
            tally.fail(f"train gave loss {loss} or a non-finite parameter",
                       samples)
            return
        tally.record(ops=samples / elapsed)

    def round(self, tally: Tally) -> None:
        for _ in range(self.compile_repeats):
            self.compile_all(tally)
        for part in self.slices:
            self.train_slice(part, tally)

    def check(self, tally: Tally) -> None:
        """Compare simulate and gradient with the reference simulator on a
        seeded sample of the compiled circuits."""
        rng = np.random.default_rng(self.seed)
        picks = self.check_indices(rng)
        for i in picks:
            c, _ = self.dataset[i]
            params = {s: float(rng.uniform(0, 2 * np.pi)) for s in c.symbols}
            weights = rng.normal(size=2 ** len(c.outputs))
            try:
                dist, success = dc_sim.simulate(c, params)
                grad = dc_sim.gradient(c, params, weights, self.gradient)
            except Exception:
                _raised(tally, f"simulating text {i}")
                continue
            ref_dist, ref_success = refsim.distribution(c, params)
            if (np.max(np.abs(dist - ref_dist)) > 1e-9
                    or abs(success - ref_success) > 1e-9):
                tally.fail(f"text {i}: simulate differs from the reference")
            used = sorted({g.param for g in c.gates
                           if isinstance(g.param, str)})
            if sorted(grad) != used:
                tally.fail(f"text {i}: gradient has symbols {sorted(grad)}, "
                           f"the circuit uses {used}")
                continue
            if self.checked_symbols and len(used) > self.checked_symbols:
                used = sorted(rng.choice(used, self.checked_symbols,
                                         replace=False))
            ref_grad = refsim.fd_gradient(c, params, weights, used)
            worst = max(abs(grad[s] - ref_grad[s]) for s in used)
            if worst > 1e-6:
                tally.fail(f"text {i}: gradient differs from finite "
                           f"differences by {worst:.3g}")

    def check_indices(self, rng) -> list[int]:
        return sorted(rng.choice(len(self.dataset), self.checked_circuits,
                                 replace=False))


class TwoTopicTrain(TrainWorkload):
    gradient = "adjoint"
    compile_repeats = 1
    # one train call per hundred texts, for more timed calls per run
    slices = [slice(0, 100), slice(100, 200), slice(200, 300)]
    checked_circuits = 4
    checked_symbols = None
    TEXTS = 300

    def make_texts(self, rng):
        return two_topic_texts(rng, self.TEXTS)

    def expected_qubits(self, index: int) -> int:
        return 4  # subject, adjective-merged object, two more objects


class WideStoryTrain(TrainWorkload):
    gradient = "parameter_shift"
    compile_repeats = 10
    WIDTHS = [7, 8, 9, 10] * 3
    # one train call per four stories, one of each width
    slices = [slice(0, 4), slice(4, 8), slice(8, 12)]
    checked_circuits = 2
    checked_symbols = 12

    def make_texts(self, rng):
        return [(wide_story(rng, w), i % 2)
                for i, w in enumerate(self.WIDTHS)]

    def expected_qubits(self, index: int) -> int:
        return self.WIDTHS[index]

    def check_indices(self, rng) -> list[int]:
        # the widest story, which reaches the spider lowering and the most
        # SWAPs, and one other picked by the seed
        widest = self.WIDTHS.index(max(self.WIDTHS))
        other = int(rng.choice([i for i in range(len(self.WIDTHS))
                                if i != widest]))
        return [widest, other]


# --- document workloads -------------------------------------------------------

class DocWorkload:
    """One long document taken from tokens to a frame-free text diagram;
    its circuit would be far past the simulator's qubit cap."""

    SENTENCES: int

    def __init__(self, seed: int, lexicon):
        self.seed = seed
        self.cfg = dc_pipeline.PipelineConfig(
            lexicon=lexicon, sandwich=SandwichConfig("shared"))
        self.tokens, self.entities, self.wire_verbs = self.make_document(
            random.Random(seed), self.SENTENCES)

    def round(self, tally: Tally) -> None:
        tally.attempted += 1
        try:
            start = time.perf_counter()
            td = front_end(self.tokens, self.cfg)
            elapsed = time.perf_counter() - start
        except Exception:
            _raised(tally, "document")
            return
        problem = self.problem(td)
        if problem:
            tally.fail(problem)
            return
        tally.record(front=len(self.tokens) / elapsed, ops=1 / elapsed)

    def problem(self, td) -> str | None:
        """What is wrong with the diagram, judged from the generator."""
        if any(isinstance(el, Frame)
               for layer in td.layers for el in walk(layer)):
            return "a Frame survived expand_frames"
        if len(td.states) != self.entities:
            return (f"{len(td.states)} wires for {self.entities} entities")
        # an entity's state is the noun of its first mention
        wire_of = {}
        for state in td.states:
            wire_of[(state.sentence_index, state.token_index)] = \
                state.chain_id
        carried = {}
        for layer in td.layers:
            for el in walk(layer):
                if isinstance(el, Box):
                    for w in el.wires:
                        cid = w[0] if isinstance(w, tuple) else w
                        carried.setdefault(cid, []).append(el.name)
        for mention, verbs in self.wire_verbs.items():
            cid = wire_of.get(mention)
            if cid is None:
                return f"the noun at {mention} owns no wire"
            # a verb's frame leaves a bottom and a top box per component
            seen = []
            for name in carried.get(cid, []):
                verb = name.split("_")[0]
                if verb in VERBS and (not seen or seen[-1] != verb):
                    seen.append(verb)
            if seen != verbs:
                return (f"the wire of the noun at {mention} carries "
                        f"{seen[:5]}..., expected {verbs[:5]}...")
        return None

    def check(self, tally: Tally) -> None:
        """Every round already checks its own document."""


class CorefChainDoc(DocWorkload):
    SENTENCES = 220

    @staticmethod
    def make_document(rng, n):
        return coref_chain_document(rng, n)


class ManyEntityDoc(DocWorkload):
    SENTENCES = 450

    @staticmethod
    def make_document(rng, n):
        return many_entity_document(rng, n)


WORKLOADS = {
    "two_topic_train": TwoTopicTrain,
    "wide_story_train": WideStoryTrain,
    "coref_chain_doc": CorefChainDoc,
    "many_entity_doc": ManyEntityDoc,
}
