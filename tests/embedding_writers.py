"""Writers of the embedding files that dacs reads, for the tests to make inputs.

They write the layouts that dacs.formats.read_embeddings and
read_embeddings_csv parse; see the dacs.formats docstring.
"""

import numpy as np

from dacs.core import FeatureMatrix
from dacs.formats import _HEADER, FLAG_UNIT_NORM, MAGIC


def write_embeddings(path, x: FeatureMatrix) -> None:
    flags = FLAG_UNIT_NORM if x.unit_norm else 0
    payload = x.data.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, x.n, x.d, flags))
        fh.write(payload)


def write_embeddings_csv(path, x: FeatureMatrix) -> None:
    header = ",".join(f"f{j}" for j in range(x.d))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, x.data, delimiter=",", fmt="%.17g")
