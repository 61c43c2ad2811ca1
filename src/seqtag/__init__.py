"""Sequence-labeling lab: hierarchical bi-LSTM tagger with a log-frequency
auxiliary loss and a TnT-style trigram HMM baseline."""

__version__ = "0.1.0"
