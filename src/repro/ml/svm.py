"""Linear SVM trained with stochastic sub-gradient descent (Pegasos-style)."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class LinearSVM:
    """A linear support vector machine for binary classification.

    Labels are +1 / -1.  Training minimizes the L2-regularized hinge loss with
    a simple learning-rate schedule; this is deliberately small and
    dependency-free (numpy only) while behaving like the SVM used in the
    paper's fraud-detection pipeline.  numpy is imported by the methods that
    use it, so importing this module (as ``repro.apps`` does) does not load it.
    """

    def __init__(self, n_features: int, regularization: float = 1e-3, seed: int = 0) -> None:
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        import numpy as np

        self.n_features = n_features
        self.regularization = regularization
        self.weights = np.zeros(n_features, dtype=float)
        self.bias = 0.0
        self._rng = np.random.default_rng(seed)
        self.trained_epochs = 0

    # -- training --------------------------------------------------------------------
    def fit(
        self,
        features: Sequence[Sequence[float]],
        labels: Sequence[int],
        epochs: int = 10,
    ) -> "LinearSVM":
        """Train on a labelled batch; can be called repeatedly (warm start)."""
        import numpy as np

        x = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected features of shape (n, {self.n_features}), got {x.shape}"
            )
        if set(np.unique(y)) - {1.0, -1.0}:
            raise ValueError("labels must be +1 or -1")
        n_samples = x.shape[0]
        step = self.trained_epochs * n_samples + 1
        for _ in range(epochs):
            order = self._rng.permutation(n_samples)
            for index in order:
                learning_rate = 1.0 / (self.regularization * step)
                margin = y[index] * (x[index] @ self.weights + self.bias)
                if margin < 1:
                    self.weights = (
                        (1 - learning_rate * self.regularization) * self.weights
                        + learning_rate * y[index] * x[index]
                    )
                    self.bias += learning_rate * y[index]
                else:
                    self.weights = (1 - learning_rate * self.regularization) * self.weights
                step += 1
            self.trained_epochs += 1
        return self

    # -- inference --------------------------------------------------------------------
    def decision_function(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        import numpy as np

        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        return x @ self.weights + self.bias

    def predict(self, features: Sequence[Sequence[float]]) -> List[int]:
        scores = self.decision_function(features)
        return [1 if score >= 0 else -1 for score in scores]

    def predict_one(self, feature_vector: Sequence[float]) -> int:
        return self.predict([feature_vector])[0]

    def accuracy(self, features: Sequence[Sequence[float]], labels: Sequence[int]) -> float:
        predictions = self.predict(features)
        correct = sum(1 for p, y in zip(predictions, labels) if p == y)
        return correct / len(labels) if labels else 0.0
