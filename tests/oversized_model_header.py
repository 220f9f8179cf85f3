#!/usr/bin/env python3
"""Checks that cstf_serve rejects a .cstf model whose header declares more
factor data than the file holds, with the typed truncation error and a
nonzero exit, instead of aborting on a failed allocation.

Usage: oversized_model_header.py CSTF_SERVE WORK_DIR

The 280-byte file declares one factor of 2^40 rows at rank 16 (128 TiB of
factor data) and ends 8 reals into it.
"""
import os
import struct
import subprocess
import sys


def header():
    data = b"CSTFSRV\n"
    data += struct.pack("<I", 2)            # format version
    data += struct.pack("<QQ", 1, 16)       # modes, rank
    data += struct.pack("<Q", 1 << 40)      # factor height
    data += struct.pack("<I", 0)            # constraint kind
    data += struct.pack("<ddd", 0, 0, 0)    # constraint a, b, final fit
    data += struct.pack("<QQ", 0, 0)        # options digest, seed
    data += struct.pack("<II", 0, 0)        # iterations, name length
    data += struct.pack("<16d", *([1.0] * 16))  # lambda
    return data.ljust(280, b"\0")


def main():
    serve, work = sys.argv[1], sys.argv[2]
    path = os.path.join(work, "oversized_model_header.cstf")
    with open(path, "wb") as f:
        f.write(header())
    run = subprocess.run([serve, "--model", path, "--requests", "4"],
                         capture_output=True, text=True, timeout=60)
    output = run.stdout + run.stderr
    if run.returncode <= 0:
        print("cstf_serve exited %d; want a nonzero exit code, not a signal"
              % run.returncode)
        print(output)
        return 1
    if "[truncated]" not in output:
        print("no typed truncation error in the output:")
        print(output)
        return 1
    print(output.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
