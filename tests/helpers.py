"""Readers that several test modules share."""


def count_elements(svg: str) -> dict[str, int]:
    """How many paths, lines and circles an SVG text draws."""
    return {
        "path": svg.count("<path "),
        "line": svg.count("<line "),
        "circle": svg.count("<circle "),
    }
