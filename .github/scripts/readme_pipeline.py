"""Run the README's command-line pipeline as written.

usage: python3 .github/scripts/readme_pipeline.py [--sentences N]

Takes the first ```sh block under the README's "## Command line" heading,
writes train.txt, valid.txt and test.txt of tests/corpusgen.py text (N
training sentences, N/4 each for validation and test) into a temporary
directory, and runs the block there with `bash -e`, through the
`markovmix` console script on PATH.  Exits with the block's status, after
printing the files the block wrote.
"""

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def pipeline_block(readme: str) -> str:
    """The first ```sh block after the "## Command line" heading."""
    lines = readme.splitlines()
    start = lines.index("## Command line")
    opening = lines.index("```sh", start)
    closing = lines.index("```", opening)
    return "\n".join(lines[opening + 1 : closing]) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sentences", type=int, default=2000)
    args = parser.parse_args()
    if shutil.which("markovmix") is None:
        sys.exit("no markovmix console script on PATH; install the package first")
    sys.path.insert(0, str(ROOT / "tests"))
    from corpusgen import generate_lines

    block = pipeline_block((ROOT / "README.md").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="readme-pipeline-") as tmp:
        work = Path(tmp)
        sizes = {"train": args.sentences, "valid": args.sentences // 4, "test": args.sentences // 4}
        for seed, (name, n) in enumerate(sizes.items(), start=1):
            text = "".join(line + "\n" for line in generate_lines(seed, n))
            (work / (name + ".txt")).write_text(text, encoding="utf-8")
        (work / "pipeline.sh").write_text(block, encoding="utf-8")
        done = subprocess.run(["bash", "-e", "pipeline.sh"], cwd=work)
        for path in sorted(work.rglob("*")):
            if path.is_file():
                print("%8d %s" % (path.stat().st_size, path.relative_to(work)))
        return done.returncode


if __name__ == "__main__":
    sys.exit(main())
