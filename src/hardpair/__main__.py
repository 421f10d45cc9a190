"""`python -m hardpair`: the hardpair command line, cli.main."""

from hardpair.cli import main

if __name__ == "__main__":
    main()
