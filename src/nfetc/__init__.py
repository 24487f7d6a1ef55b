"""Fine-grained entity type classification with noise-tolerant training.

A from-scratch implementation on numpy: BiLSTM-attention mention/context
encoder with hand-derived backward passes chained into one training
backward, hierarchy-aware losses, and a training CLI.
"""

__version__ = "0.1.0"
