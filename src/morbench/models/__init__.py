"""Classifiers, their optimizer, prediction handles and the model file format."""
