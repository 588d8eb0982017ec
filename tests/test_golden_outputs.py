"""Byte-identity guard for the CLI outputs.

The hashes below were taken from the per-packet object implementation
that predates the columnar simulate/classify/bucket core; the ranging and
calibrate hashes were taken before the trace and samples file writers were
merged into one, and the three other calibrate design variants before the
fit was rebuilt from named columns.  Any change to a byte of a trace, a
labelled trace, an accuracy curve, a matrix, a model file or the summary
lines printed with them shows up here.  Re-record only when an output is
meant to change.
"""

import contextlib
import hashlib
import io
import os

import pytest

from blechannel import cli

CONFIGS = {
    "busy.cfg": (
        "duration_s = 90\nrestart_every_s = 30\nbehavior = balanced-offset\n"
        "n_advertisers = 3\ndrift_rate = 2e-4\njitter_min_s = 0.01\n"
        "jitter_max_s = 0.05\nloss_prob = 0.3\nshadow_sigma_db = 3\n"
        "channel_offsets_db = 0,-7,-15\n"
    ),
    "accuracy.cfg": (
        "duration_s = 120\nbucket_s = 10\nn_seeds = 2\ndrift_rate = 1.5e-3\n"
        "jitter_max_s = 0.05\n"
    ),
    "matrix.cfg": (
        "duration_s = 60\nrestart_every_s = 20\nn_advertisers = 2\n"
        "drift_rate = -1e-3\njitter_max_s = 0.03\nloss_prob = 0.2\n"
    ),
    "samples.csv": (
        "channel,distance_m,rssi_dbm\n"
        "37,1.0,-40.1\n38,1.0,-46.8\n39,1.0,-55.3\n"
        "37,2.5,-48.2\n38,2.5,-54.9\n39,2.5,-63.0\n"
        "37,6.0,-55.7\n38,6.0,-62.4\n39,6.0,-71.1\n"
        "37,14.0,-63.4\n38,14.0,-69.6\n39,14.0,-78.2\n"
    ),
}

# (name, command line, files hashed along with stdout), run in order.
PLAN = [
    ("simulate", "simulate --seed 7 --duration 60 --out trace.csv", ["trace.csv"]),
    ("classify", "classify --in trace.csv --out labelled.csv", ["labelled.csv"]),
    ("simulate-busy", "simulate --config busy.cfg --seed 7 --out busy.csv", ["busy.csv"]),
    ("classify-busy", "classify --in busy.csv --out busy-labelled.csv", ["busy-labelled.csv"]),
    ("simulate-bare", "simulate --seed 7 --duration 60 --no-rssi --out bare.csv", ["bare.csv"]),
    ("classify-bare", "classify --in bare.csv --out bare-labelled.csv", ["bare-labelled.csv"]),
    ("accuracy", "accuracy --config accuracy.cfg --seed 2 --out curve.csv", ["curve.csv"]),
    ("matrix", "matrix --config matrix.cfg --seed 3 --out matrix.csv", ["matrix.csv"]),
    ("ranging", "ranging --seed 7 --model-out model.txt", ["model.txt"]),
    ("calibrate", "calibrate --in samples.csv --out fit.txt", ["fit.txt"]),
    ("calibrate-agnostic", "calibrate --in samples.csv --agnostic --out fit-agnostic.txt",
     ["fit-agnostic.txt"]),
    ("calibrate-pinned", "calibrate --in samples.csv --exponent 2.0 --out fit-pinned.txt",
     ["fit-pinned.txt"]),
    ("calibrate-agnostic-pinned",
     "calibrate --in samples.csv --agnostic --exponent 2.0 --out fit-agnostic-pinned.txt",
     ["fit-agnostic-pinned.txt"]),
]

EXPECTED = {
    "simulate": "4591aa4aa5c0635bf5ae7b5bfd29c03d5842fb720578c4e075d49871469c9386",
    "classify": "3f18edf835b59be551938a14da13f55237f4dd2140188c24a9095e907e51e319",
    "simulate-busy": "13596e147bdeb03eda6c448ce8f7535b54a46d88c8b376b0ad6cb89fd563cfe8",
    "classify-busy": "54d3710df6bdf456ee085b67ecbfa32688e7426e41323eda21040a89edd0a4ec",
    "simulate-bare": "42c82a5b773d8fa8ebab5e997de1e98b0177119cf8512a2f4626e0b89f48ed58",
    "classify-bare": "fcc3924b19c93636e880b93d70eca555ce2558f200c2999df6eac4b3e9442204",
    "accuracy": "10c51a0d5de0ee5a30b4a2a53df84e4caaefaa416f44e8c470567a4a4cc1915d",
    "matrix": "6d2f035594b3367b54a4d572fb3c7ac6d01dbc26102f2f1c17261b7aab93b0a3",
    "ranging": "0a3186f0d7fcc508f6883d2b519eaf2eff52d6ae67d86dd10d18515fb51d0903",
    "calibrate": "7c2ce9c2dfff26b82eb50370eaf616cbc3322277a441c01517de5e81410911a1",
    "calibrate-agnostic": "c068938450a4c23c9618765dbe20ec9d401ab56f85013a207dbc6d4549b5a072",
    "calibrate-pinned": "b55f05598be2b92e1f4d237170d113f4b7faac1064263d132bdd6fbad180db03",
    "calibrate-agnostic-pinned": "846a78d64adc81c5b34514c2943cd243a0d3eb19a0c82a84cc7ad5279f1e9088",
}


def run_plan(directory):
    """name -> sha256 over the command's stdout and output files.

    File names in the plan are taken relative to ``directory``; printed
    paths are replaced by the bare names before hashing.
    """
    for name, text in CONFIGS.items():
        (directory / name).write_text(text, encoding="utf-8")
    digests = {}
    for name, command, outputs in PLAN:
        # every argument with a dot in it, other than a number, is a file name
        argv = [str(directory / a) if "." in a and not a[0].isdigit() else a
                for a in command.split()]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert cli.main(argv) == 0, name
        stdout = sink.getvalue().replace(str(directory) + os.sep, "")
        h = hashlib.sha256(stdout.encode("utf-8"))
        for out in outputs:
            h.update((directory / out).read_bytes())
        digests[name] = h.hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_plan(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _, _ in PLAN])
def test_cli_output_bytes_are_unchanged(digests, name):
    assert digests[name] == EXPECTED[name]
