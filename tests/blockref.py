"""Block-by-block helpers that several test modules build references with."""

import numpy as np


def shift_rows(rows: dict, i: int, basis) -> dict:
    """Coefficient blocks of x_i times a block-coefficient vector: each
    block's columns scattered to the positions of alpha + e_i."""
    out = {}
    for k, g in rows.items():
        block = np.zeros((g.shape[0], basis.size(k + 1)))
        block[:, basis.shift_index(k, i)] = g
        out[k + 1] = block
    return out


def row_blocks(P, n: int) -> dict:
    """Degree n of a system as the dict of its blocks that pair_blocks takes."""
    return dict(enumerate(P.blocks[n]))
