"""
Training both classifiers on the synthetic three-class set
==========================================================

Generates sixty clips (three motion programs, twenty replicates each),
reduces every clip to its sixteen moment-invariant features, then trains
the KNN and MLP back ends on the same stratified split and prints their
confusion matrices side by side.
"""

import tempfile
import time

import numpy as np

from mhi import (
    KnnModel,
    LabeledSample,
    MlpConfig,
    SplitSpec,
    Standardizer,
    TrainedModel,
    evaluate,
    split_dataset,
    three_class_specs,
    train_mlp,
)
from mhi.cli import extract_samples
from mhi.synth import generate, specs_to_json

THETA, TAU = 10.0, 30

specs = three_class_specs(frames=30, size=64, rect=12, count=20, seed=0)
print(specs_to_json(specs))

t0 = time.perf_counter()
with tempfile.TemporaryDirectory(prefix="mhi_demo_") as out_dir:
    generate(specs, out_dir)
    samples = extract_samples(f"{out_dir}/manifest.jsonl", THETA, TAU)
print(f"{len(samples)} feature vectors in {time.perf_counter() - t0:.2f}s")

# Half the data trains, a quarter validates (the MLP picks its snapshot by
# validation accuracy), a quarter stays untouched for the final numbers.
train, val, test = split_dataset(samples, SplitSpec(seed=0))
standardizer = Standardizer.fit(train)


def std(part):
    return [
        LabeledSample(standardizer.apply(s.features), s.label, s.source)
        for s in part
    ]


knn = TrainedModel(
    classifier="knn", tau=TAU, theta=THETA, standardizer=standardizer,
    knn=KnnModel(
        k=5,
        vectors=np.stack([s.features for s in std(train)]),
        labels=[s.label for s in std(train)],
    ),
)
mlp = TrainedModel(
    classifier="mlp", tau=TAU, theta=THETA, standardizer=standardizer,
    mlp=train_mlp(std(train), std(val), MlpConfig(seed=0)),
)

for name, model in (("knn", knn), ("mlp", mlp)):
    matrix, accuracy = evaluate(model, test)
    print(f"\n{name} test accuracy: {accuracy:.3f}")
    print(matrix.to_csv(), end="")
