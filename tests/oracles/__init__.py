"""Slow reference implementations that differential tests compare against.

Each oracle is the straightforward version of a kernel that ``src/`` now
computes a faster way. They are kept only to check the fast path and are
never imported by the library.
"""
