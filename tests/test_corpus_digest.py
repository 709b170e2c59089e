"""The byte-identity tool's commands stay in step with the command line."""

import corpus_digest


def test_every_digest_command_exits_without_raising(tmp_path, run_cli):
    # exit 0, 2 or 3 on each builtin and variant command: none raises, so
    # no digest compares a traceback
    labels = []
    for label, argv in corpus_digest.commands(tmp_path):
        code, _, _ = run_cli(argv)
        assert code in (0, 2, 3), label
        labels.append(label)
    assert len(labels) == 85
