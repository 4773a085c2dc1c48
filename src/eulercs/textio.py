"""Whole-array text I/O: the ESM and Euler-square writers format a block
of lines with one %-format.  The ESM reader, which every `verify` runs,
converts the leading lines in the writer's own form with one regular
expression match and one numpy call; from the first line in another form
on it scans line by line, accepting what `str.split` and `int` accept and
naming the first bad line.
"""

import re

import numpy as np

# numbers formatted per write: bounds the transient tuple and text
BLOCK_VALUES = 1 << 16

# one number as the writers print it; 18 digits always fit in int64
NUMBER = r"[0-9]{1,18}"


def repeated(token, count):
    """Pattern of `count` space-separated `token`s; none match if count < 1."""
    if count < 1:
        return "(?!)"
    return rf"(?:{token} ){{{count - 1}}}{token}"


def format_lines(values, line):
    """Text chunks of `line` %-formatted with each row of 2-D `values`.

    Rows go in blocks of about BLOCK_VALUES numbers, one format each.
    """
    per_block = max(1, BLOCK_VALUES // max(1, values.shape[1]))
    for b in range(0, len(values), per_block):
        block = values[b:b + per_block]
        yield line * len(block) % tuple(block.ravel().tolist())


def canonical_prefix(lines, line_pattern):
    """Numbers of the leading lines that fully match `line_pattern`.

    The pattern may separate numbers by spaces or ':'.  Returns
    (values, n): the first n lines match and `values` holds their
    numbers in order as one int64 array.
    """
    try:
        match = re.compile(line_pattern).fullmatch
    except OverflowError:
        # a repeat count beyond re's limit: no line held in memory has
        # that many numbers
        return np.empty(0, dtype=np.int64), 0
    n = len(lines)
    if not all(map(match, lines)):
        n = next(i for i, line in enumerate(lines) if not match(line))
    head = " ".join(lines[:n]).replace(":", " ")
    return np.fromstring(head, dtype=np.int64, sep=" "), n
