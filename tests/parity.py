"""Byte-for-byte parity of the CLI between the working tree and a revision.

    python3 tests/parity.py <revision>

Unpacks ``<revision>`` (a commit, tag or branch of this repository) with
``git archive`` into a temporary directory, then runs the same ``nfetc``
steps under each tree's ``src/``, each in a fresh work directory that holds
copies of the bundled fixtures, with ``OPENBLAS_NUM_THREADS=2`` and
``PYTHONHASHSEED=0``:

- the README quick start for each of the four variants, each followed by
  ``eval`` with ``per_type`` and ``json``, ``predict`` and ``export-types``
  on its checkpoint;
- ``stats`` with ``json`` on the synthetic world;
- a two-seed ``NFETC-hier(r)`` run with dropout, followed by the same three
  checkpoint readers, and ``eval`` and ``predict`` on the synthetic corpus
  six times over, longer than one block of their second pass;
- a window-10 quick start, followed by the same readers, ``eval`` and
  ``predict`` on generated lines of 25 to 45 tokens, whose 128-mention
  chunks hold several groups of an inference input product
  (``nfetc.autodiff.GROUP_ROWS``), and a step that prints the SHA-256 of
  ``predict_probs`` on those lines, which the 6 printed decimals of
  ``predict`` would not show a last-bit change of;
- the refined train, ``eval`` and ``stats`` of ``tests/fixtures/mini``
  (its ``run.cfg``, with the synthetic world's embeddings);
- then, in a copy of the revision's work directory, the working tree's
  ``eval``, ``predict`` and ``export-types`` on the revision's checkpoints.

Each step's exit code, stdout and stderr, and every file left in the work
directories (checkpoints, logs, reports and embedding caches), are compared
byte for byte. Prints one line per difference and exits 1 if there is one;
otherwise prints one summary line and exits 0. Needs only local git and the
standard library; not collected by pytest (the name does not start with
``test_``). A run takes about 15 s on a 2-vCPU machine.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
ENV = {"OPENBLAS_NUM_THREADS": "2", "PYTHONHASHSEED": "0"}
VARIANTS = ("NFETC(f)", "NFETC-hier(f)", "NFETC(r)", "NFETC-hier(r)")

# the README quick start, less its variant and checkpoint
SYNTH = ["--set", "types=synth/types.txt", "--set", "train=synth/train.tsv",
         "--set", "test=synth/train.tsv", "--set", "embeddings=synth/embeddings.txt"]
QUICK = SYNTH + ["--set", "lr=0.01", "--set", "dp=4", "--set", "ds=16", "--set", "pi=1.0",
                 "--set", "po=1.0", "--set", "window=3", "--set", "batch=32",
                 "--set", "epochs=30"]
# the mini fixture's run.cfg, with its paths made relative to the work directory
MINI = ["--config", "mini/run.cfg", "--set", "types=mini/types.txt",
        "--set", "refinement=mini/refinement.tsv", "--set", "train=mini/corpus.tsv",
        "--set", "test=mini/corpus.tsv"]


# the synth corpus six times over, 1,200 lines: more than one block of
# eval's and predict's second pass (``nfetc.cli.PREDICT_BLOCK``)
LONG, LONG_TIMES = "synth/long.tsv", 6
# the synth corpus with 20 to 40 tokens of other lines around each line's own 5
WIDE = "synth/wide.tsv"
# argv of a step that prints the SHA-256 of the float64 ``predict_probs`` rows
# of checkpoint argv[1] on the windowed input argv[2]
DIGEST = ["-c", "import hashlib, sys\n"
          "from nfetc.corpus import parse_corpus, windowed\n"
          "from nfetc.training import load_checkpoint\n"
          "r = load_checkpoint(sys.argv[1])\n"
          "corpus = windowed(parse_corpus(sys.argv[2], r.forest), r.hyperparams.window)\n"
          "print(hashlib.sha256(r.model.predict_probs(corpus).tobytes()).hexdigest())\n"]


def readers(name: str, more: str | None = None) -> list[tuple[str, list[str]]]:
    """The steps that read checkpoint ``<name>.ckpt``: they alone run again
    on the revision's checkpoints. With ``more`` (``LONG`` or ``WIDE``),
    eval and predict read that input too, and with ``WIDE`` the digest
    step."""
    ckpt = ["--set", f"checkpoint={name}.ckpt", "--set", "input=synth/train.tsv"]
    steps = [(f"eval {name}", ["eval", *ckpt, "--set", "per_type=true", "--set", "json=true",
                               "--set", f"report={name}.eval"]),
             (f"predict {name}", ["predict", *ckpt, "--set", f"output={name}.predict"]),
             (f"export-types {name}", ["export-types", "--set", f"checkpoint={name}.ckpt"])]
    if more:
        tag = os.path.splitext(os.path.basename(more))[0]
        ckpt = ["--set", f"checkpoint={name}.ckpt", "--set", f"input={more}"]
        steps += [(f"eval {name} {tag}", ["eval", *ckpt, "--set", "per_type=true",
                                          "--set", "json=true"]),
                  (f"predict {name} {tag}", ["predict", *ckpt,
                                             "--set", f"output={name}.{tag}.predict"])]
    if more == WIDE:
        steps.append((f"predict_probs digest {name}", [*DIGEST, f"{name}.ckpt", WIDE]))
    return steps


def wide_lines(lines: list[bytes]) -> bytes:
    """Each corpus line of ``lines`` with the tokens of the 4 to 8 lines after
    it (cyclically) around its own, half before and half after, and its span
    moved with them."""
    fields = [line.split(b"\t") for line in lines]
    out = []
    for k, (span, tokens, labels) in enumerate(fields):
        m = 4 + k % 5
        around = [fields[(k + 1 + j) % len(fields)][1] for j in range(m)]
        before = b" ".join(around[:m // 2]).split(b" ")
        start, end = (int(v) + len(before) for v in span.split(b" "))
        text = b" ".join([*around[:m // 2], tokens, *around[m // 2:]])
        out.append(b"%d %d\t%s\t%s" % (start, end, text, labels))
    return b"".join(out)


def steps() -> tuple[list, list]:
    """(every step, the checkpoint readers among them), each (name, argv)."""
    run, read = [], []
    for i, variant in enumerate(VARIANTS):
        name = f"quick{i}"
        run.append((f"train {variant}", ["train", *QUICK, "--set", f"variant={variant}",
                                         "--set", f"checkpoint={name}.ckpt"]))
        read += readers(name)
        run += readers(name)
    run.append(("stats synth", ["stats", *SYNTH[:2], "--set", "input=synth/train.tsv",
                                "--set", "json=true"]))
    run.append(("train two seeds", [
        "train", *QUICK, "--set", "variant=NFETC-hier(r)", "--set", "seed=3,4",
        "--set", "pi=0.7", "--set", "po=0.9", "--set", "epochs=4", "--set", "lambda=0.001",
        "--set", "checkpoint=seeds.ckpt", "--set", "log=seeds.log",
        "--set", "report=seeds.report"]))
    read += readers("seeds", LONG)
    run += readers("seeds", LONG)
    run.append(("train wide", ["train", *QUICK, "--set", "variant=NFETC-hier(r)",
                               "--set", "window=10", "--set", "checkpoint=wide.ckpt"]))
    read += readers("wide", WIDE)
    run += readers("wide", WIDE)
    run += [("train mini", ["train", *MINI, "--set", "embeddings=synth/embeddings.txt",
                            "--set", "dp=4", "--set", "ds=8", "--set", "checkpoint=mini.ckpt",
                            "--set", "log=mini.log", "--set", "report=mini.report"]),
            ("eval mini", ["eval", "--set", "checkpoint=mini.ckpt",
                           "--set", "input=mini/corpus.tsv", "--set", "types=mini/types.txt",
                           "--set", "refinement=mini/refinement.tsv",
                           "--set", "per_type=true", "--set", "json=true"]),
            ("stats mini", ["stats", *MINI, "--set", "input=mini/corpus.tsv"])]
    return run, read


def execute(tree: str, work: str, todo) -> dict:
    """Run each (name, argv) of ``todo`` in ``work`` with ``tree``'s code:
    name -> (exit code, stdout, stderr)."""
    env = {**os.environ, **ENV, "PYTHONPATH": os.path.join(tree, "src")}
    env.pop("NFETC_DATA_ROOT", None)
    results = {}
    for name, argv in todo:
        command = argv if argv[0] == "-c" else ["-m", "nfetc.cli", *argv]
        done = subprocess.run([sys.executable, *command], cwd=work, env=env,
                              capture_output=True)
        results[name] = (done.returncode, done.stdout, done.stderr)
    return results


def flat(results: dict) -> dict:
    """'<step> exit|stdout|stderr' -> value, of ``execute``'s results."""
    return {f"{name} {what}": value for name, result in results.items()
            for what, value in zip(("exit", "stdout", "stderr"), result)}


def files(work: str) -> dict[str, bytes]:
    """Relative path -> bytes of every file under ``work``."""
    found = {}
    for folder, _, names in os.walk(work):
        for n in names:
            path = os.path.join(folder, n)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, work)] = fh.read()
    return found


def differences(label: str, got: dict, want: dict) -> list[str]:
    """One line for each key of either dict whose values differ."""
    lines = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            where = "the revision" if key in want else "the working tree"
            lines.append(f"{label}: {key} only under {where}")
        elif got[key] != want[key]:
            lines.append(f"{label}: {key} differs")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="nfetc-parity-") as tmp:
        base = os.path.join(tmp, "base")
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        run, read = steps()
        results = {}
        for side, tree in (("tree", ROOT), ("base", base)):
            work = os.path.join(tmp, f"work-{side}")
            for fixture in ("synth", "mini"):
                shutil.copytree(os.path.join(FIXTURES, fixture), os.path.join(work, fixture))
            with open(os.path.join(FIXTURES, "synth", "train.tsv"), "rb") as fh:
                lines = fh.read()
            with open(os.path.join(work, LONG), "wb") as fh:
                fh.write(lines * LONG_TIMES)
            with open(os.path.join(work, WIDE), "wb") as fh:
                fh.write(wide_lines(lines.splitlines(keepends=True)))
            results[side] = flat(execute(tree, work, run)), files(work)
        cross = os.path.join(tmp, "work-cross")
        shutil.copytree(os.path.join(tmp, "work-base"), cross)
        results["cross"] = flat(execute(ROOT, cross, read)), files(cross)

    (got, got_files), (want, want_files), (again, again_files) = results.values()
    found = (differences("step", got, want) + differences("file", got_files, want_files)
             + differences("on the revision's checkpoints, step", again,
                           {k: v for k, v in want.items() if k in again})
             + differences("on the revision's checkpoints, file", again_files, want_files))
    for line in found:
        print(line)
    if found:
        return 1
    failed = sum(want[f"{name} exit"] != 0 for name, _ in run)
    print(f"identical to {rev}: {len(run)} steps ({failed} failing alike) and "
          f"{len(want_files)} files, then {len(read)} steps on its checkpoints")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
