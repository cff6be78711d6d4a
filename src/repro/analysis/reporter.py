"""Finding collection, suppression handling and report rendering.

Suppression syntax (the reason is mandatory -- a bare suppression is itself
reported as LNT000):

* trailing comment -- suppresses matching findings on that line only::

      import time  # lint: disable=DET001(host-side timing, not sim state)

* own-line comment -- a per-file baseline: suppresses the code everywhere
  in the file::

      # lint: disable=DET002(iteration order pinned by sorted fixture keys)

Several codes may share one comment, separated by commas:
``# lint: disable=DET001(reason),DET004(reason)``.

Suppressions are audited, not just honoured:

* a suppression naming a code no rule defines is reported as **LNT003**
  (it can never fire -- usually a typo);
* a suppression whose code is in the active rule set but which never
  matched a finding is reported as **LNT002** (stale): the code it was
  excusing has been fixed or moved, and keeping the comment would hide a
  future regression without anyone deciding to.
"""

import io
import os
import re
import tokenize

_SUPPRESS_PREFIX = re.compile(r"#\s*lint:\s*disable=(.*)$")
_SUPPRESS_ITEM = re.compile(r"([A-Z]{3,5}\d{3})\s*(?:\(([^()]*)\))?")


class Finding:
    """One linter hit: where, which rule, and why."""

    __slots__ = ("path", "line", "col", "code", "message")

    def __init__(self, path, line, col, code, message):
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def render(self):
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def __repr__(self):
        return f"<Finding {self.code} {self.path}:{self.line}>"


class SuppressionEntry:
    """One ``CODE(reason)`` item parsed from a ``# lint: disable=`` comment."""

    __slots__ = ("code", "reason", "line", "col", "file_level", "used")

    def __init__(self, code, reason, line, col, file_level):
        self.code = code
        self.reason = reason
        self.line = line
        self.col = col
        self.file_level = file_level
        self.used = False


class Suppressions:
    """Parsed ``# lint: disable=`` comments for one file."""

    def __init__(self):
        self.entries = []      # SuppressionEntry (well-formed only)
        self.malformed = []    # Finding (LNT000): suppression without reason

    def covers(self, finding):
        """Does any entry suppress ``finding``?  Marks the entry used."""
        hit = None
        for entry in self.entries:
            if entry.code != finding.code:
                continue
            if not entry.file_level and entry.line == finding.line:
                hit = entry
                break
            if entry.file_level and hit is None:
                hit = entry
        if hit is not None:
            hit.used = True
            return True
        return False

    @classmethod
    def parse(cls, source, path):
        suppressions = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return suppressions
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_PREFIX.search(token.string)
            if match is None:
                continue
            line = token.start[0]
            own_line = token.line[: token.start[1]].strip() == ""
            for code, reason in _SUPPRESS_ITEM.findall(match.group(1)):
                if not (reason or "").strip():
                    suppressions.malformed.append(
                        Finding(
                            path, line, token.start[1], "LNT000",
                            f"suppression of {code} must carry a reason: "
                            f"# lint: disable={code}(why)",
                        )
                    )
                    continue
                suppressions.entries.append(
                    SuppressionEntry(
                        code, reason.strip(), line, token.start[1], own_line
                    )
                )
        return suppressions


class LintReport:
    """Findings across a lint run, with deterministic rendering."""

    def __init__(self, findings, files_checked):
        self.findings = sorted(findings, key=Finding.sort_key)
        self.files_checked = files_checked

    @property
    def clean(self):
        return not self.findings

    def render(self):
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
        )
        return "\n".join(lines)


def _lint_files(files, rules=None, project_rules=None, check_stale=True):
    """The lint engine: per-file rules, then project rules, then audits.

    ``files`` is ``[(path, source), ...]``.  Returns the final finding
    list (suppressions applied, LNT00x audits appended).
    """
    import ast

    from repro.analysis.registry import all_project_rules, all_rules, known_codes
    from repro.analysis.statemodel import extract_models

    if rules is None and project_rules is None:
        rule_classes = all_rules()
        project_classes = all_project_rules()
    else:
        rule_classes = list(rules or ())
        project_classes = list(project_rules or ())

    known = set(known_codes())
    known.update(rule.code for rule in rule_classes)
    known.update(rule.code for rule in project_classes)

    per_file = {}        # path -> (suppressions, raw findings)
    models_by_path = {}
    order = []
    for path, source in files:
        order.append(path)
        suppressions = Suppressions.parse(source, path)
        raw = []
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raw.append(
                Finding(path, error.lineno or 1, (error.offset or 1) - 1,
                        "LNT001", f"file does not parse: {error.msg}")
            )
            per_file[path] = (suppressions, raw)
            continue
        for rule_class in rule_classes:
            if rule_class.exempt(path):
                continue
            raw.extend(rule_class(path).run(tree))
        if project_classes:
            models_by_path[path] = extract_models(tree, path)
        per_file[path] = (suppressions, raw)

    for project_class in project_classes:
        scoped = {
            path: models
            for path, models in models_by_path.items()
            if not project_class.exempt(path)
        }
        for finding in project_class().run_project(scoped):
            if finding.path in per_file:
                per_file[finding.path][1].append(finding)

    findings = []
    for path in order:
        suppressions, raw = per_file[path]
        findings.extend(suppressions.malformed)
        findings.extend(
            finding for finding in raw if not suppressions.covers(finding)
        )
        active = {
            rule.code
            for rule in list(rule_classes) + list(project_classes)
            if not rule.exempt(path)
        }
        for entry in suppressions.entries:
            if entry.code not in known:
                findings.append(
                    Finding(
                        path, entry.line, entry.col, "LNT003",
                        f"suppression names unknown rule code {entry.code}; "
                        f"see 'python -m repro lint --list-rules'",
                    )
                )
            elif check_stale and not entry.used and entry.code in active:
                findings.append(
                    Finding(
                        path, entry.line, entry.col, "LNT002",
                        f"stale suppression: no {entry.code} finding "
                        f"matches it any more -- delete the comment (or "
                        f"the regression it hides returns unnoticed)",
                    )
                )
    return findings


def lint_source(source, path="<string>", rules=None, project_rules=None,
                check_stale=True):
    """Lint one source string; returns the list of live findings.

    Parse failures surface as a single LNT001 finding rather than an
    exception, so one broken file cannot hide the rest of the tree.
    Project rules run scoped to this one file, so same-file SNAP003
    findings surface here too.  Passing ``rules`` (without
    ``project_rules``) runs exactly those per-file rules.
    """
    return _lint_files(
        [(path, source)], rules=rules, project_rules=project_rules,
        check_stale=check_stale,
    )


def iter_python_files(paths):
    """Every ``.py`` file under ``paths``, sorted for determinism.

    A path that does not exist raises ``FileNotFoundError``: walking it
    would lint nothing and pass.
    """
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(
                os.path.join(dirpath, name)
                for name in sorted(filenames)
                if name.endswith(".py")
            )
    return sorted(files)


def lint_paths(paths, rules=None, project_rules=None, check_stale=True):
    """Lint every Python file under ``paths``; returns a :class:`LintReport`."""
    files = []
    for file_path in iter_python_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            files.append((file_path, handle.read()))
    findings = _lint_files(
        files, rules=rules, project_rules=project_rules, check_stale=check_stale
    )
    return LintReport(findings, files_checked=len(files))
