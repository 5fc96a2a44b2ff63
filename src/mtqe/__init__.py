"""Reference-free translation quality estimation.

Extracts 16 features from (source sentence, translation) pairs, trains a
Gaussian Naive Bayes grader against human judgments, predicts four-level
quality grades, and reports human/classifier agreement.
"""
