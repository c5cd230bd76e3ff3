"""Online-pairing metric losses, priority-class softmax variants, and a
synthetic person-search trainer/evaluator."""

__version__ = "0.1.0"
