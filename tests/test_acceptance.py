"""Shipped-claim acceptance checks, one printed line per criterion.

Every test prints ``ACCEPTANCE <n> <name>: PASS|FAIL`` (visible with
``pytest -s`` or on failure), so a run of this module reads as a checklist.
Tolerances sit next to the check they gate. The heavier criteria (5-7, 9)
train real models and together take under a minute.
"""

import contextlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from gradcheck import fd_gradient, max_rel_error
from oracles import (brute_expand, brute_pair_metrics, brute_terminal_set,
                     random_forest_paths)
from synthworld import (DEV_NOISE_SEED, extra_candidates, generic_world,
                        overly_specific)

from nfetc.cli import main
from nfetc.corpus import MentionTriple, parse_corpus, stats
from nfetc.embeddings import WordEmbeddings
from nfetc.evaluation import score_pairs
from nfetc.hierarchy import TypeForest
from nfetc.loss import (PROB_FLOOR, LossConfig, hierarchical_adjust_rows, l2_penalty,
                        mean_nll)
from nfetc import model as model_module
from nfetc.model import NfetcModel
from nfetc.optim import make_rng
from nfetc.training import (gradients, params_from_values, select_variant,
                            train, training_corpus)
from hparams import figer_hp

FIXTURES = Path(__file__).parent / "fixtures"
MINI = FIXTURES / "mini"
SYNTH = FIXTURES / "synth"

SEEDS = (1, 2, 3, 4, 5)

# shared miniature-training knobs for criteria 5-7; small enough for seconds,
# large enough that the cue signal is learnable
MINI_HP = dict(lr=0.01, d_p=4, d_s=16, p_i=1.0, p_o=1.0,
               window=3, batch=32)


def _report(n: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- 1: gradient correctness ------------------------------------------------------


def test_1_gradient_correctness(monkeypatch):
    # a training forward at keep 1, with the LSTMs in float64
    monkeypatch.setattr(model_module, "TRAIN_DTYPE", np.float64)
    t0 = time.time()
    forest = TypeForest(["/a", "/a/b", "/c", "/c/d"])
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    emb = WordEmbeddings(vocab, make_rng(5).uniform(-0.5, 0.5, size=(len(vocab), 6)))

    word_rng = make_rng(6)
    label_sets = [("/a",), ("/a", "/a/b"), ("/a", "/a/b", "/c"),
                  ("/a", "/c", "/c/d")]
    batch = []
    for labels in label_sets:
        tokens = tuple(str(w) for w in word_rng.choice(vocab, size=5))
        batch.append(MentionTriple(tokens, 2, 3, tuple(sorted(labels)),
                                   frozenset(forest.terminal_set(labels))))

    hp = figer_hp(d_p=3, d_s=5, window=2, p_i=1.0, p_o=1.0)
    model = NfetcModel(hp, emb, forest, make_rng(9))
    _, loss_cfg = select_variant("NFETC-hier(r)", lam=0.01, beta=0.3)

    def objective():
        probs, _, backward = model.forward_bucket(batch, train=True)
        nll, d_probs = mean_nll(probs, batch, loss_cfg, forest)
        l2, d_l2 = l2_penalty(model.params, loss_cfg.lam)
        return float(nll + l2), gradients(backward, d_probs, d_l2)

    analytic = objective()[1]

    def value():
        return objective()[0]

    worst, worst_name = 0.0, ""
    for name, values in model.params.items():
        numeric = fd_gradient(value, values, step=1e-5)
        err = max_rel_error(analytic[name], numeric)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(1, "gradient-correctness", ok,
            f"max rel err {worst:.2e} at {worst_name}, {elapsed:.1f}s")


# -- 2: loss identities -----------------------------------------------------------


def test_2_loss_identities():
    rng = make_rng(202)
    params = params_from_values({"w": rng.normal(size=(3, 2))})

    singleton_gap = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        p = np.array([rng.dirichlet(np.ones(k))])
        gold = int(rng.integers(k))
        lam = float(rng.choice([0.0, 0.05]))
        # a flat forest of at most 9 types indexes /t<i> at i
        forest = TypeForest([f"/t{i}" for i in range(k)])
        one = [MentionTriple(("x",), 0, 1, (f"/t{gold}",), frozenset({f"/t{gold}"}))]
        a = mean_nll(p, one, LossConfig(), forest)[0] + l2_penalty(params, lam)[0]
        b = -math.log(max(p[0, gold], PROB_FLOOR)) + l2_penalty(params, lam)[0]
        singleton_gap = max(singleton_gap, abs(float(a) - float(b)))

    beta_zero_gap = 0.0
    for _ in range(200):
        forest = TypeForest(random_forest_paths(rng))
        rows = rng.dirichlet(np.ones(len(forest)), size=int(rng.integers(1, 6)))
        adjusted = hierarchical_adjust_rows(rows, forest, 0.0)
        beta_zero_gap = max(beta_zero_gap, float(np.max(np.abs(adjusted - rows))))

    sum_gap = 0.0
    for _ in range(1000):
        forest = TypeForest(random_forest_paths(rng))
        rows = rng.dirichlet(np.ones(len(forest)), size=int(rng.integers(1, 5)))
        beta = float(rng.uniform(0.0, 1.0))
        adjusted = hierarchical_adjust_rows(rows, forest, beta)
        sum_gap = max(sum_gap, float(np.max(np.abs(adjusted.sum(axis=1) - 1.0))))

    ok = singleton_gap <= 1e-12 and beta_zero_gap <= 1e-12 and sum_gap <= 1e-9
    _report(2, "loss-identities", ok,
            f"singleton gap {singleton_gap:.1e}, beta=0 gap {beta_zero_gap:.1e}, "
            f"sum gap {sum_gap:.1e}")


# -- 3: hierarchy algebra ---------------------------------------------------------


def test_3_hierarchy_algebra():
    rng = make_rng(303)
    problem = None
    for i in range(1000):
        paths = random_forest_paths(rng, max_types=50, max_depth=4)
        forest = TypeForest(paths)
        for t in paths:
            if set(forest.expand_to_path(t)) != brute_expand(t):
                problem = f"expand mismatch for {t} in forest {i}"
                break
            if set(forest.terminal_set(forest.expand_to_path(t))) != {t}:
                problem = f"expand/reduce round trip broke for {t} in forest {i}"
                break
        if problem:
            break
        k = int(rng.integers(1, len(paths) + 1))
        subset = [paths[j] for j in rng.choice(len(paths), size=k, replace=False)]
        mine = set(forest.terminal_set(subset))
        expanded = set().union(*(forest.expand_to_path(t) for t in mine))
        if mine != brute_terminal_set(subset):
            problem = f"terminal_set mismatch on {subset} in forest {i}"
        elif set(forest.terminal_set(mine)) != mine:
            problem = f"terminal_set not idempotent on {subset} in forest {i}"
        elif set(forest.terminal_set(expanded)) != mine:
            problem = f"reduce/expand round trip broke on {subset} in forest {i}"
        if problem:
            break
    _report(3, "hierarchy-algebra", problem is None,
            problem or "1000 random forests, exact set equality")


# -- 4: metrics oracle ------------------------------------------------------------


def test_4_metrics_oracle():
    worked = score_pairs([(frozenset({"/person", "/person/athlete"}), frozenset({"/person"}))])
    worked_ok = (worked.macro_p == 1.0 and worked.macro_r == 0.5
                 and worked.macro_f1 == 2 / 3 and worked.micro_f1 == 2 / 3
                 and worked.strict == 0.0)

    rng = make_rng(404)
    batch_gap = 0.0
    for _ in range(1000):
        pool = random_forest_paths(rng, max_types=12, max_depth=3)
        pairs = []
        for _ in range(int(rng.integers(1, 9))):
            gold = rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)),
                              replace=False)
            pred = rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)),
                              replace=False)
            pairs.append((frozenset(str(g) for g in gold), frozenset(str(p) for p in pred)))
        got = score_pairs(pairs)
        want = brute_pair_metrics(pairs)
        mine = (got.strict, got.macro_p, got.macro_r, got.macro_f1,
                got.micro_p, got.micro_r, got.micro_f1)
        batch_gap = max(batch_gap, float(np.max(np.abs(np.array(mine) - np.array(want)))))

    ok = worked_ok and batch_gap <= 1e-12
    _report(4, "metrics-oracle", ok,
            f"worked example {'ok' if worked_ok else 'WRONG'}, "
            f"1000-batch max gap {batch_gap:.1e}")


# -- 5: overfit sanity ------------------------------------------------------------


def test_5_overfit_sanity():
    forest = TypeForest.from_file(SYNTH / "types.txt")
    corpus = parse_corpus(SYNTH / "train.tsv", forest, tag="train")
    emb = WordEmbeddings.from_file(SYNTH / "embeddings.txt")
    shape = stats(corpus, forest)
    bundled_ok = (shape.mentions == 200 and shape.types == 8
                  and shape.max_label_depth == 3
                  and shape.single_path == shape.mentions)

    choice, cfg = select_variant("NFETC(f)")
    filtered = training_corpus(corpus, choice, forest)
    hp = figer_hp(**MINI_HP, epochs=200, patience=5, seed=1)
    t0 = time.time()
    # dev = train: early stopping then tracks training strict accuracy itself
    result = train(filtered, filtered, emb, forest, hp, cfg)
    elapsed = time.time() - t0

    ok = bundled_ok and result.best_dev_strict >= 0.99 and elapsed < 300.0
    _report(5, "overfit-sanity", ok,
            f"train strict {result.best_dev_strict:.4f} by epoch "
            f"{result.best_epoch} of {len(result.epoch_log)}, {elapsed:.1f}s")


# -- 6 and 7: noise-direction experiments -----------------------------------------


def _mean_test_strict(variant, beta, train_corpus, dev_corpus, world):
    scores = []
    for seed in SEEDS:
        choice, cfg = select_variant(variant, beta=beta)
        corpus = training_corpus(train_corpus, choice, world["forest"])
        hp = figer_hp(**MINI_HP, epochs=30, patience=30, seed=seed)
        result = train(corpus, dev_corpus, world["embeddings"], world["forest"],
                       hp, cfg, eval_corpus=world["test"])
        scores.append(result.final.strict)
    return float(np.mean(scores))


def test_6_noise_robustness_direction():
    world = generic_world()
    noisy_train = overly_specific(world["train"], world["forest"], rate=0.4)
    noisy_dev = overly_specific(world["dev"], world["forest"], rate=0.4,
                                seed=DEV_NOISE_SEED)
    flat = _mean_test_strict("NFETC(f)", 0.0, noisy_train, noisy_dev, world)
    hier = _mean_test_strict("NFETC-hier(f)", 0.4, noisy_train, noisy_dev, world)
    _report(6, "noise-robustness-direction", hier > flat,
            f"mean test strict over {len(SEEDS)} seeds: "
            f"NFETC-hier(f) {hier:.4f} vs NFETC(f) {flat:.4f}")


def test_7_out_of_context_variant_direction():
    world = generic_world()
    noisy_train = extra_candidates(world["train"], world["forest"], rate=0.4)
    flat = _mean_test_strict("NFETC(f)", 0.0, noisy_train, world["dev"], world)
    raw = _mean_test_strict("NFETC(r)", 0.0, noisy_train, world["dev"], world)
    _report(7, "out-of-context-variant-direction", raw >= flat,
            f"mean test strict over {len(SEEDS)} seeds: "
            f"NFETC(r) raw {raw:.4f} vs NFETC(f) filtered {flat:.4f}")


# -- 8: statistics fidelity -------------------------------------------------------

# user-supplied full-scale data: $NFETC_DATA_ROOT/<name>/{types.txt,train.tsv}
FULL_SCALE = {
    "figer": {"types": 113, "mentions": 2009898, "pct_single_path": 64.46},
    "ontonotes": {"types": 89, "mentions": 253241, "pct_single_path": 73.13},
}


def test_8_statistics_fidelity():
    manifest = json.loads((MINI / "manifest.json").read_text())
    code, out, err = _run_cli(["stats", "--set", f"types={MINI / 'types.txt'}",
                               "--set", f"input={MINI / 'corpus.tsv'}"])
    s = manifest["stats"]
    expected = (f"types={s['types']}\nmentions={s['mentions']}\n"
                f"single_path={s['single_path']}\n"
                f"pct_single_path={s['pct_single_path']:.2f}\n"
                f"max_label_depth={s['max_label_depth']}\n")
    mini_ok = code == 0 and out == expected

    root = os.environ.get("NFETC_DATA_ROOT")
    notes, full_ok = [], True
    for name, want in FULL_SCALE.items():
        base = Path(root) / name if root else None
        if base is None or not ((base / "types.txt").exists()
                                and (base / "train.tsv").exists()):
            notes.append(f"{name} skipped: data not available")
            continue
        code, out, err = _run_cli(["stats", "--set", "json=true",
                                   "--set", f"types={base / 'types.txt'}",
                                   "--set", f"input={base / 'train.tsv'}"])
        got = json.loads(out.splitlines()[-1]) if code == 0 else {}
        agree = all(got.get(k) == v for k, v in want.items())
        full_ok = full_ok and code == 0 and agree
        notes.append(f"{name} {'matches' if agree else 'DIFFERS: ' + repr(got)}")

    _report(8, "statistics-fidelity", mini_ok and full_ok,
            f"mini manifest {'exact' if mini_ok else 'MISMATCH'}; "
            + "; ".join(notes))


# -- 9: determinism ---------------------------------------------------------------


def test_9_determinism(tmp_path):
    def run(tag):
        root = tmp_path / tag
        root.mkdir()
        ckpt, log, report = root / "model.ckpt", root / "log.txt", root / "rep.txt"
        argv = ["train",
                "--set", "lr=0.01", "--set", "dp=4", "--set", "ds=8",
                "--set", "pi=0.7", "--set", "po=0.9", "--set", "window=3",
                "--set", "batch=32", "--set", "epochs=3", "--set", "patience=3",
                "--set", "seed=7", "--set", "variant=NFETC-hier(f)",
                "--set", "beta=0.3",
                "--set", f"types={SYNTH / 'types.txt'}",
                "--set", f"train={SYNTH / 'train.tsv'}",
                "--set", f"test={SYNTH / 'train.tsv'}",
                "--set", f"embeddings={SYNTH / 'embeddings.txt'}",
                "--set", f"checkpoint={ckpt}", "--set", f"log={log}",
                "--set", f"report={report}"]
        code, out, err = _run_cli(argv)
        assert code == 0, err
        return ckpt.read_bytes(), report.read_bytes()

    ckpt_a, report_a = run("a")
    ckpt_b, report_b = run("b")
    ok = ckpt_a == ckpt_b and report_a == report_b
    _report(9, "determinism", ok,
            f"checkpoint {len(ckpt_a)} bytes, report {len(report_a)} bytes, "
            f"both {'identical' if ok else 'DIFFER'}")
