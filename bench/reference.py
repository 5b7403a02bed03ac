"""Fixed reference program that measures how fast this machine runs right now.

run.py starts it as a fresh interpreter (`python -I -S`) beside every timed
CLI call.  It does the same kinds of work as the CLI, process start, regex
matching, string formatting, tuple and dict building, sorting and joining,
but none of stax-kit's code, so its time depends on the machine and the
interpreter only.  Dividing the CLI's times by its time cancels the
machine's speed changes between and within runs.
"""

import re

LINE = re.compile(r'<([^>]*)> <([^>]*)> "([^"]*)" \.')

rows = []
for i in range(40_000):
    line = f'<http://example.org/s/{i % 997}> <http://example.org/p/{i % 13}> "v{i}" .'
    m = LINE.match(line)
    rows.append((m.group(1), m.group(2), m.group(3).upper()))
by_subject = {}
for s, p, o in rows:
    by_subject.setdefault(s, []).append((p, o))
text = "\n".join(f"{s} {len(v)}" for s, v in sorted(by_subject.items()))
print(len(text))
