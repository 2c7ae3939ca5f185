"""Per-morbidity clinical-note classification benchmark.

TF-IDF + SVM/MLP baselines against BiLSTM classifiers fed by pretrained,
GloVe-style, or domain-trained word embeddings, evaluated with stratified
k-fold cross-validation on JSON-Lines note corpora (real or synthetic).
"""

__version__ = "0.1.0"
