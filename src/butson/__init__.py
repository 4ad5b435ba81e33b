"""Exact tools for Butson Hadamard matrices, bent vectors, and Z_k codes.

Every name is imported from the module that defines it, e.g.
`from butson.matrices import character_table` or
`from butson.bent import check_bent`; the package itself defines nothing, so
`import butson` and `python -m butson` load numpy only once a command or a
caller needs it.
"""
