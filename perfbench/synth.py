"""Seeded, vectorized generator of a synthetic BRFSS-2015 indicators table.

The table has the 22 columns of the public extract, in its order, with every
cell an integer code written with a trailing ``.0``. At ``scale=1`` it has the
real extract's 253,680 rows and its exact target counts (213,703 coded 0,
4,631 coded 1, 35,346 coded 2); a smaller scale keeps those shares.

Features are drawn independently from marginals close to the real extract's.
The target is planted: each row gets a risk logit (``PLANTED`` below) plus
standard logistic noise, and the rows with the highest noisy risk become the
positives, so the class counts are exact and lower income means higher risk.

Run ``python3 perfbench/synth.py --seed 1 --out table.csv`` to write a table.
"""
from __future__ import annotations

import argparse

import numpy as np

# name -> (low, high) of the valid integer codes, in file order
COLUMNS = [
    ("Diabetes_012", 0, 2),
    ("HighBP", 0, 1),
    ("HighChol", 0, 1),
    ("CholCheck", 0, 1),
    ("BMI", 12, 98),
    ("Smoker", 0, 1),
    ("Stroke", 0, 1),
    ("HeartDiseaseorAttack", 0, 1),
    ("PhysActivity", 0, 1),
    ("Fruits", 0, 1),
    ("Veggies", 0, 1),
    ("HvyAlcoholConsump", 0, 1),
    ("AnyHealthcare", 0, 1),
    ("NoDocbcCost", 0, 1),
    ("GenHlth", 1, 5),
    ("MentHlth", 0, 30),
    ("PhysHlth", 0, 30),
    ("DiffWalk", 0, 1),
    ("Sex", 0, 1),
    ("Age", 1, 13),
    ("Education", 1, 6),
    ("Income", 1, 8),
]
NAMES = [name for name, _, _ in COLUMNS]
LOW = {name: low for name, low, _ in COLUMNS}
FEATURES = NAMES[1:]

# class counts of the real extract (codes 0, 1, 2)
FULL_COUNTS = (213_703, 4_631, 35_346)

BINARY_RATES = {
    "HighBP": 0.429, "HighChol": 0.424, "CholCheck": 0.963, "Smoker": 0.443,
    "Stroke": 0.041, "HeartDiseaseorAttack": 0.094, "PhysActivity": 0.757,
    "Fruits": 0.634, "Veggies": 0.811, "HvyAlcoholConsump": 0.056,
    "AnyHealthcare": 0.951, "NoDocbcCost": 0.084, "DiffWalk": 0.168,
    "Sex": 0.440,
}
ORDINAL_WEIGHTS = {
    "GenHlth": [17.9, 35.1, 29.8, 12.4, 4.8],
    "Age": [2.2, 3.0, 4.4, 5.5, 6.4, 7.8, 10.3, 12.2, 13.1, 12.7, 9.3, 6.3, 6.8],
    "Education": [0.07, 1.6, 3.7, 24.7, 27.6, 42.3],
    "Income": [3.9, 4.6, 6.3, 7.9, 10.2, 14.4, 17.0, 35.7],
}
# days in the last 30: mostly 0, a thin spread over 1..30, spikes at round numbers
DAY_SPIKES = {
    "MentHlth": (69.0, {1: 3.4, 2: 5.2, 3: 2.9, 4: 1.5, 5: 3.6, 7: 1.2,
                        10: 2.5, 14: 0.5, 15: 2.2, 20: 1.3, 25: 0.5, 30: 4.8}),
    "PhysHlth": (63.0, {1: 4.5, 2: 5.8, 3: 3.3, 4: 1.8, 5: 3.0, 7: 1.8,
                        10: 2.2, 14: 1.0, 15: 1.9, 20: 1.3, 25: 0.5, 30: 7.6}),
}

# planted risk logit: sum of coefficient * (value - centre)
PLANTED = {
    "HighBP": (0.80, 0.0),
    "HighChol": (0.60, 0.0),
    "CholCheck": (1.00, 0.0),
    "BMI": (0.07, 28.0),
    "GenHlth": (0.55, 3.0),
    "Income": (-0.20, 6.0),
}


def class_counts(scale: float = 1.0) -> tuple:
    """Rows coded 0, 1 and 2 in a table of the given scale."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    return tuple(int(round(c * scale)) for c in FULL_COUNTS)


def _categorical(rng, n, low, weights):
    p = np.asarray(weights, dtype=float)
    return low + rng.choice(len(p), size=n, p=p / p.sum())


def _days(rng, n, zero_weight, spikes):
    weights = np.full(31, 0.15)
    weights[0] = zero_weight
    for day, w in spikes.items():
        weights[day] = w
    return _categorical(rng, n, 0, weights)


def _bmi(rng, n):
    bmi = np.rint(rng.lognormal(np.log(27.6), 0.21, size=n))
    # a thin uniform share covers the extract's whole 12..98 range
    wide = rng.random(n) < 0.003
    bmi[wide] = rng.integers(12, 99, size=int(wide.sum()))
    return np.clip(bmi, 12, 98).astype(np.int64)


def generate(seed: int, scale: float = 1.0) -> np.ndarray:
    """Integer table of shape (rows, 22), columns in ``NAMES`` order."""
    counts = class_counts(scale)
    n = sum(counts)
    rng = np.random.default_rng(seed)
    cols = {}
    for name in FEATURES:
        if name in BINARY_RATES:
            cols[name] = (rng.random(n) < BINARY_RATES[name]).astype(np.int64)
        elif name in ORDINAL_WEIGHTS:
            cols[name] = _categorical(rng, n, LOW[name], ORDINAL_WEIGHTS[name])
        elif name in DAY_SPIKES:
            cols[name] = _days(rng, n, *DAY_SPIKES[name])
        else:
            cols[name] = _bmi(rng, n)

    risk = sum(coef * (cols[name] - centre) for name, (coef, centre) in PLANTED.items())
    risk = risk + rng.logistic(size=n)
    order = np.argsort(-risk, kind="stable")
    n_pos = counts[1] + counts[2]
    target = np.zeros(n, dtype=np.int64)
    positives = order[:n_pos]
    target[positives] = 2
    target[rng.permutation(positives)[: counts[1]]] = 1
    cols["Diabetes_012"] = target
    return np.column_stack([cols[name] for name in NAMES])


_CELL_TEXT = np.array([f"{v}.0" for v in range(100)], dtype=object)


def to_csv_bytes(table: np.ndarray) -> bytes:
    """The table as CSV text: header line, then ``k.0`` codes."""
    cells = _CELL_TEXT[table].tolist()
    lines = [",".join(NAMES)] + [",".join(row) for row in cells]
    return ("\n".join(lines) + "\n").encode("ascii")


def write_csv(table: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_csv_bytes(table))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_csv(generate(args.seed, args.scale), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
