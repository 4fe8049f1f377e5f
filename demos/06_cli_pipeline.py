"""
Driving the command-line pipeline
=================================

The CLI speaks plain JSON matrix documents.  This script samples an
automorphism, factors it to a file, recomposes it, and verifies it —
the same loop you would run from a shell:

    socaut sample 4 1 --seed 3 > m.json
    socaut check m.json
    socaut factor m.json --output f.json
    socaut compose f.json --output m2.json
    socaut verify m.json
"""

import tempfile
from pathlib import Path

import numpy as np

from socaut.cli import main
from socaut.fileio import dumps_matrix, parse_matrix

# The work directory and its documents are removed when the block ends.
with tempfile.TemporaryDirectory(prefix="socaut_demo_") as tmp:
    workdir = Path(tmp)
    matrix = workdir / "m.json"
    fact = workdir / "f.json"
    recomposed = workdir / "m2.json"

    # Sample one 4x4 automorphism into a file.
    code = main(["sample", "4", "1", "--seed", "3", "--output", str(workdir)])
    print("sample exit code:", code)
    (workdir / "automorphism_0000.json").rename(matrix)

    # Check prints a machine-parsable report, one datum per line.
    print("\n$ socaut check m.json")
    main(["check", str(matrix)])

    # Factor to canonical form; the file records the achieved residual.
    print("\n$ socaut factor m.json --output f.json")
    main(["factor", str(matrix), "--output", str(fact)])
    print(fact.read_text())

    # Compose reproduces the matrix to machine precision, and every emitted
    # document is a fixed point of re-serialization: parse it, dump it, and
    # the bytes come back unchanged.
    main(["compose", str(fact), "--output", str(recomposed)])
    original = parse_matrix(matrix.read_text())
    returned = parse_matrix(recomposed.read_text())
    print("max |recomposed - original| =", np.abs(returned - original).max())
    print("re-serialization is stable:", dumps_matrix(returned) == recomposed.read_text())

    # Verify reports the identity residuals and the proved cone certificate.
    print("\n$ socaut verify m.json")
    main(["verify", str(matrix)])

    # Rejections are exit codes, not exceptions: 1 for mathematical rejection,
    # 2 for malformed input (the parse diagnostic itself goes to stderr).
    stretched = workdir / "stretched.txt"
    stretched.write_text("1 0\n0 2\n")
    print("\ncheck diag(1,2) exit code:", main(["check", str(stretched), "--quiet"]))
    broken = workdir / "broken.json"
    broken.write_text('{"n": 2, "data": [[1, 0]]}')
    print("check malformed exit code:", main(["check", str(broken), "--quiet"]))
